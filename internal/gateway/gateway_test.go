package gateway

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"hfetch/internal/core/placement"
	"hfetch/internal/core/seg"
	"hfetch/internal/core/server"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

const testSeg = 4096

// newTestNode builds a started single-node server with telemetry and a
// gateway over it.
func newTestNode(t *testing.T, cfg Config) (*Gateway, *server.Server, *pfs.FS) {
	t.Helper()
	return newTestNodeEngine(t, cfg, placement.Config{UpdateThreshold: placement.High})
}

// newTestNodeEngine is newTestNode with the placement engine's triggers
// under the caller's control.
func newTestNodeEngine(t *testing.T, cfg Config, eng placement.Config) (*Gateway, *server.Server, *pfs.FS) {
	t.Helper()
	fs := pfs.New(nil)
	ram := tiers.NewStore("ram", 4<<20, nil)
	hier := tiers.NewHierarchy(ram)
	stats, maps := server.NewLocalMaps("gw0")
	reg := telemetry.NewRegistry()
	reg.SetTimeSampling(1)
	srv, err := server.New(server.Config{
		Node:        "gw0",
		SegmentSize: testSeg,
		Engine:      eng,
		Telemetry:   reg,
	}, fs, hier, stats, maps)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	cfg.Telemetry = reg
	g := New(srv, cfg)
	t.Cleanup(g.Close)
	return g, srv, fs
}

// expected reads the reference content of file straight from the PFS.
func expected(t *testing.T, fs *pfs.FS, name string, size int64) []byte {
	t.Helper()
	ref := make([]byte, size)
	if _, _, err := fs.ReadAt(name, 0, ref); err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestGetFullFile(t *testing.T) {
	g, _, fs := newTestNode(t, Config{})
	const size = 3*testSeg + 100
	if err := fs.Create("data/a", size); err != nil {
		t.Fatal(err)
	}
	ref := expected(t, fs, "data/a", size)

	ts := httptest.NewServer(g)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/files/data/a")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ar := resp.Header.Get("Accept-Ranges"); ar != "bytes" {
		t.Fatalf("Accept-Ranges = %q", ar)
	}
	if et := resp.Header.Get("ETag"); et != `"g0"` {
		t.Fatalf("ETag = %q, want %q", et, `"g0"`)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, ref) {
		t.Fatal("body does not match PFS reference content")
	}
}

func TestGetRangeVariants(t *testing.T) {
	g, _, fs := newTestNode(t, Config{})
	const size = int64(10000)
	if err := fs.Create("data/r", size); err != nil {
		t.Fatal(err)
	}
	ref := expected(t, fs, "data/r", size)
	ts := httptest.NewServer(g)
	defer ts.Close()

	cases := []struct {
		name, rng  string
		wantStatus int
		wantCR     string
		wantStart  int64
		wantLen    int64
	}{
		{"closed", "bytes=100-199", 206, "bytes 100-199/10000", 100, 100},
		{"open-ended", "bytes=9900-", 206, "bytes 9900-9999/10000", 9900, 100},
		{"suffix", "bytes=-100", 206, "bytes 9900-9999/10000", 9900, 100},
		{"suffix-over-size", "bytes=-20000", 206, "bytes 0-9999/10000", 0, size},
		{"end-clamped", "bytes=9990-10005", 206, "bytes 9990-9999/10000", 9990, 10},
		{"beyond-eof", "bytes=10000-", 416, "bytes */10000", 0, 0},
		{"far-beyond-eof", "bytes=99999-100000", 416, "bytes */10000", 0, 0},
		{"suffix-zero", "bytes=-0", 416, "bytes */10000", 0, 0},
		{"multi-range", "bytes=0-1,5-6", 416, "bytes */10000", 0, 0},
		{"malformed", "bytes=abc-def", 200, "", 0, size},
		{"not-bytes", "chapters=1-2", 200, "", 0, size},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, _ := http.NewRequest("GET", ts.URL+"/files/data/r", nil)
			req.Header.Set("Range", tc.rng)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if cr := resp.Header.Get("Content-Range"); cr != tc.wantCR {
				t.Fatalf("Content-Range = %q, want %q", cr, tc.wantCR)
			}
			if tc.wantStatus >= 400 {
				return
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			want := ref[tc.wantStart : tc.wantStart+tc.wantLen]
			if !bytes.Equal(body, want) {
				t.Fatalf("body mismatch for %s", tc.rng)
			}
		})
	}
}

func TestZeroLengthFile(t *testing.T) {
	g, _, fs := newTestNode(t, Config{})
	if err := fs.Create("data/empty", 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/files/data/empty")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.ContentLength != 0 {
		t.Fatalf("plain GET: status=%d len=%d, want 200/0", resp.StatusCode, resp.ContentLength)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/files/data/empty", nil)
	req.Header.Set("Range", "bytes=0-")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 416 {
		t.Fatalf("ranged GET on empty file: status = %d, want 416", resp.StatusCode)
	}
	if cr := resp.Header.Get("Content-Range"); cr != "bytes */0" {
		t.Fatalf("Content-Range = %q, want %q", cr, "bytes */0")
	}
}

func TestHeadAndNotFound(t *testing.T) {
	g, _, fs := newTestNode(t, Config{})
	if err := fs.Create("data/h", 5000); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	defer ts.Close()

	resp, err := http.Head(ts.URL + "/files/data/h")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.ContentLength != 5000 {
		t.Fatalf("HEAD: status=%d len=%d, want 200/5000", resp.StatusCode, resp.ContentLength)
	}

	resp, err = http.Get(ts.URL + "/files/no/such")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("missing file: status = %d, want 404", resp.StatusCode)
	}
}

func TestIfRangeMismatchServesFull(t *testing.T) {
	g, _, fs := newTestNode(t, Config{})
	if err := fs.Create("data/ir", 8000); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/files/data/ir", nil)
	req.Header.Set("Range", "bytes=0-99")
	req.Header.Set("If-Range", `"g42"`) // stale validator
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.ContentLength != 8000 {
		t.Fatalf("stale If-Range: status=%d len=%d, want full 200/8000", resp.StatusCode, resp.ContentLength)
	}

	req.Header.Set("If-Range", `"g0"`) // current validator
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 206 {
		t.Fatalf("current If-Range: status = %d, want 206", resp2.StatusCode)
	}
}

// writeTrigger bumps the file generation the moment the first body
// chunk is written, so the next chunk's generation check must abort.
type writeTrigger struct {
	*httptest.ResponseRecorder
	onFirst func()
	fired   bool
}

func (w *writeTrigger) Write(p []byte) (int, error) {
	if !w.fired {
		w.fired = true
		w.onFirst()
	}
	return w.ResponseRecorder.Write(p)
}

func TestMidStreamWriteAbortsConsistently(t *testing.T) {
	g, _, fs := newTestNode(t, Config{ChunkBytes: testSeg})
	const size = 4 * testSeg
	if err := fs.Create("data/w", size); err != nil {
		t.Fatal(err)
	}
	ref := expected(t, fs, "data/w", size) // generation 0

	w := &writeTrigger{
		ResponseRecorder: httptest.NewRecorder(),
		onFirst: func() {
			if _, err := fs.Write("data/w", 0, 1); err != nil {
				t.Error(err)
			}
		},
	}
	req := httptest.NewRequest("GET", "/files/data/w", nil)
	func() {
		defer func() {
			if r := recover(); r != http.ErrAbortHandler {
				t.Fatalf("recovered %v, want http.ErrAbortHandler", r)
			}
		}()
		g.ServeHTTP(w, req)
		t.Fatal("handler completed; want mid-stream abort")
	}()

	body := w.Body.Bytes()
	if len(body) == 0 || len(body) >= size {
		t.Fatalf("got %d body bytes, want a strict non-empty prefix of %d", len(body), size)
	}
	// Every byte the client received must be generation 0: the response
	// never splices the new generation in.
	if !bytes.Equal(body, ref[:len(body)]) {
		t.Fatal("response mixed file generations")
	}
	if got := g.abortCtr.Value(); got != 1 {
		t.Fatalf("aborted counter = %d, want 1", got)
	}
}

func TestStreamDetectionDrivesPrefetch(t *testing.T) {
	g, srv, fs := newTestNode(t, Config{StreamDetect: true, StreamLookahead: 4})
	const size = 32 * testSeg
	if err := fs.Create("data/s", size); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	defer ts.Close()

	// Three back-to-back sequential ranges from one client: the second
	// establishes the stream, so hints must flow.
	for i := int64(0); i < 3; i++ {
		req, _ := http.NewRequest("GET", ts.URL+"/files/data/s", nil)
		req.Header.Set("Range",
			"bytes="+itoa(i*testSeg)+"-"+itoa((i+1)*testSeg-1))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 206 {
			t.Fatalf("status = %d, want 206", resp.StatusCode)
		}
	}
	if g.streamCtr.Value() == 0 {
		t.Fatal("no stream detected after sequential ranges")
	}
	if g.hintCtr.Value() == 0 {
		t.Fatal("no readahead hints posted for the detected stream")
	}
	srv.Flush()
	// A hinted segment ahead of the last read must now be resident.
	buf := make([]byte, testSeg)
	hit := false
	for idx := int64(3); idx < 8; idx++ {
		if _, _, ok := srv.ReadPrefetched(seg.ID{File: "data/s", Index: idx}, 0, buf); ok {
			hit = true
			break
		}
	}
	if !hit {
		t.Fatal("no hinted segment was prefetched")
	}
}

// Each segment ahead of a stream is hinted once, however many of the
// stream's ranges land in the segment before it.
func TestStreamHintsDeduplicated(t *testing.T) {
	g, _, fs := newTestNode(t, Config{StreamDetect: true, StreamLookahead: 2})
	if err := fs.Create("data/q", 8*testSeg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	defer ts.Close()
	const quarter = testSeg / 4
	for i := int64(0); i < 16; i++ { // segments 0..3 in quarter-segment ranges
		req, _ := http.NewRequest("GET", ts.URL+"/files/data/q", nil)
		req.Header.Set("Range", "bytes="+itoa(i*quarter)+"-"+itoa((i+1)*quarter-1))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// Detected at the second range: segments 1 and 2; then one new
	// segment per segment crossed: 3, 4, 5.
	if n := g.hintCtr.Value(); n != 5 {
		t.Fatalf("hints = %d, want 5 (segments 1..5, each once)", n)
	}
}

func TestStreamDetectOffPostsNoHints(t *testing.T) {
	g, _, fs := newTestNode(t, Config{StreamDetect: false})
	if err := fs.Create("data/off", 16*testSeg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	defer ts.Close()
	for i := int64(0); i < 3; i++ {
		req, _ := http.NewRequest("GET", ts.URL+"/files/data/off", nil)
		req.Header.Set("Range", "bytes="+itoa(i*testSeg)+"-"+itoa((i+1)*testSeg-1))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if n := g.hintCtr.Value(); n != 0 {
		t.Fatalf("hints posted with stream_detect off: %d", n)
	}
}

func TestGatewayEpochsReleasedOnClose(t *testing.T) {
	g, srv, fs := newTestNode(t, Config{})
	if err := fs.Create("data/e", 1000); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/files/data/e")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if !srv.Registry().Watched("data/e") {
		t.Fatal("served file is not watched")
	}
	g.Close()
	if srv.Registry().Watched("data/e") {
		t.Fatal("watch survived gateway Close")
	}
	resp, err = http.Get(ts.URL + "/files/data/e")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("request after Close: status = %d, want 503", resp.StatusCode)
	}
}

func TestParseRangeTable(t *testing.T) {
	cases := []struct {
		h        string
		size     int64
		mode     int
		start, n int64
	}{
		{"", 100, rangeFull, 0, 100},
		{"bytes=0-49", 100, rangePartial, 0, 50},
		{"bytes=50-", 100, rangePartial, 50, 50},
		{"bytes=-10", 100, rangePartial, 90, 10},
		{"bytes=-200", 100, rangePartial, 0, 100},
		{"bytes=0-199", 100, rangePartial, 0, 100},
		{"bytes=100-", 100, rangeUnsatisfiable, 0, 0},
		{"bytes=-0", 100, rangeUnsatisfiable, 0, 0},
		{"bytes=0-0", 0, rangeUnsatisfiable, 0, 0},
		{"bytes=-5", 0, rangeUnsatisfiable, 0, 0},
		{"bytes=0-1,3-4", 100, rangeUnsatisfiable, 0, 0},
		{"bytes=5-2", 100, rangeFull, 0, 100},
		{"bytes=x-y", 100, rangeFull, 0, 100},
		{"bites=0-1", 100, rangeFull, 0, 100},
		{"bytes=", 100, rangeFull, 0, 100},
	}
	for _, tc := range cases {
		br, mode := parseRange(tc.h, tc.size)
		if mode != tc.mode {
			t.Errorf("parseRange(%q, %d) mode = %d, want %d", tc.h, tc.size, mode, tc.mode)
			continue
		}
		if mode == rangeUnsatisfiable {
			continue
		}
		if br.start != tc.start || br.length != tc.n {
			t.Errorf("parseRange(%q, %d) = [%d,+%d), want [%d,+%d)",
				tc.h, tc.size, br.start, br.length, tc.start, tc.n)
		}
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

func TestConditionalGetNotModified(t *testing.T) {
	g, _, fs := newTestNode(t, Config{})
	const size = int64(2 * testSeg)
	if err := fs.Create("data/cg", size); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	defer ts.Close()

	get := func(inm string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+"/files/data/cg", nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Prime: learn the current ETag.
	resp := get("")
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag != `"g0"` {
		t.Fatalf("ETag = %q, want %q", etag, `"g0"`)
	}

	// Matching validator (exact, list, wildcard): 304 with no body.
	for _, inm := range []string{etag, `"stale", ` + etag, "*"} {
		resp = get(inm)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status = %d, want 304", inm, resp.StatusCode)
		}
		if len(body) != 0 {
			t.Fatalf("If-None-Match %q: 304 carried %d body bytes", inm, len(body))
		}
		if got := resp.Header.Get("ETag"); got != etag {
			t.Fatalf("304 ETag = %q, want %q", got, etag)
		}
	}

	// Stale validator: full response.
	resp = get(`"g999"`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || int64(len(body)) != size {
		t.Fatalf("stale validator: status = %d, body = %d bytes; want 200, %d",
			resp.StatusCode, len(body), size)
	}

	// A write bumps the generation: the old validator no longer matches.
	if _, err := fs.Write("data/cg", 0, size); err != nil {
		t.Fatal(err)
	}
	resp = get(etag)
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || int64(len(body)) != size {
		t.Fatalf("post-write revalidation: status = %d, body = %d bytes; want 200, %d",
			resp.StatusCode, len(body), size)
	}
	if got := resp.Header.Get("ETag"); got != `"g1"` {
		t.Fatalf("post-write ETag = %q, want %q", got, `"g1"`)
	}
}

// A GET the local tiers only partly hold posts its access event as a
// miss, so placement runs for it at once: with the engine's update
// threshold and interval out of reach, only urgent updates place
// anything. A wholly resident GET stays non-urgent.
func TestPartlyPFSServedGetIsUrgent(t *testing.T) {
	g, srv, fs := newTestNodeEngine(t, Config{},
		placement.Config{UpdateThreshold: 1 << 30, Interval: time.Hour})
	const size = 3 * testSeg
	if err := fs.Create("data/u", size); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	defer ts.Close()
	get := func(from, to int64) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/files/data/u", nil)
		req.Header.Set("Range", "bytes="+strconv.FormatInt(from, 10)+"-"+strconv.FormatInt(to, 10))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	resident := func(idx int64) bool {
		_, _, ok := srv.Lookup(seg.ID{File: "data/u", Index: idx})
		return ok
	}
	waitResident := func(idxs ...int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for _, idx := range idxs {
			for !resident(idx) {
				if time.Now().After(deadline) {
					t.Fatalf("segment %d not placed: the GET posted no urgent update", idx)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	get(0, testSeg-1)
	srv.Flush() // place segment 0
	if !resident(0) || resident(1) || resident(2) {
		t.Fatal("want exactly segment 0 placed after the first GET")
	}
	get(0, size-1) // segment 0 from RAM, 1 and 2 from the PFS
	waitResident(1, 2)

	srv.Flush()
	runs := srv.Engine().Counters().Runs
	get(0, size-1) // wholly resident
	for !srv.Monitor().Quiescent() {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := srv.Engine().Counters().Runs; got != runs {
		t.Fatalf("a wholly resident GET ran %d placement passes, want none", got-runs)
	}
}
