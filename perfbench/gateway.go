package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hfetch"
	"hfetch/internal/pfs"
)

// The gateway workload: open-loop HTTP range GETs against node 0's
// gateway in a two-node fabric over loopback TCP, with a few overwrites
// through node 1. Tiers are node-local, and half the files are warmed on
// node 1, so reads of them cross the fabric.
const (
	gwLocalFiles  = 8 // warmed through node 0's gateway
	gwRemoteFiles = 8 // warmed by a client on node 1
	gwFileBytes   = 4 << 20
	gwSeqBytes    = 256 << 10 // one step of a sequential stream
	gwRandBytes   = 64 << 10  // one random range, and one overwrite
	gwStreams     = 4
	gwRemoteShare = 0.3  // share of reads aimed at node 1's files
	gwWriteShare  = 0.02 // share of operations that overwrite
	gwRate        = 500  // offered operations per second
	gwSchedule    = 4 * time.Second
	gwConns       = 2
	gwTimeScale   = 1e-3
	// gwP99Limit is the latency limit the rate ramp holds the p99 to.
	gwP99Limit = 25 * time.Millisecond
)

func gatewayConfig() hfetch.Config {
	cfg := daemonConfig()
	cfg.Nodes = 2
	cfg.ClusterFabric = true
	cfg.ClusterTransport = "tcp"
	cfg.TimeScale = gwTimeScale
	// Node-local tiers only, each node holding one file set.
	setCapacities(&cfg, map[string]int64{"ram": 16 << 20, "nvme": 16 << 20})
	return cfg
}

func gwName(i int) string {
	if i < gwLocalFiles {
		return fmt.Sprintf("gw/local-%d", i)
	}
	return fmt.Sprintf("gw/remote-%d", i-gwLocalFiles)
}

// gwOp is one scheduled operation, due at offset due from the start.
type gwOp struct {
	due   time.Duration
	write bool
	file  int
	off   int64
	n     int64
}

// gwPlan builds an open-loop schedule of n operations at rate per
// second: half sequential streams, half random ranges, a few writes.
func gwPlan(rng *rand.Rand, rate float64, n int) []gwOp {
	pickFile := func() int {
		if rng.Float64() < gwRemoteShare {
			return gwLocalFiles + rng.Intn(gwRemoteFiles)
		}
		return rng.Intn(gwLocalFiles)
	}
	type cursor struct {
		file int
		off  int64
	}
	streams := make([]cursor, gwStreams)
	for i := range streams {
		streams[i] = cursor{file: pickFile()}
	}
	ops := make([]gwOp, n)
	for i := range ops {
		op := gwOp{due: time.Duration(float64(i) / rate * float64(time.Second))}
		switch r := rng.Float64(); {
		case r < gwWriteShare:
			op.write, op.file = true, rng.Intn(gwLocalFiles+gwRemoteFiles)
			op.off, op.n = rng.Int63n(gwFileBytes/gwRandBytes)*gwRandBytes, gwRandBytes
		case r < (1+gwWriteShare)/2:
			s := &streams[rng.Intn(gwStreams)]
			if s.off+gwSeqBytes > gwFileBytes {
				*s = cursor{file: pickFile()}
			}
			op.file, op.off, op.n = s.file, s.off, gwSeqBytes
			s.off += gwSeqBytes
		default:
			op.file, op.off, op.n = pickFile(), rng.Int63n(gwFileBytes-gwRandBytes+1), gwRandBytes
		}
		ops[i] = op
	}
	return ops
}

func prepareGateway(seed int64) (*plan, error) {
	n := int(gwRate * gwSchedule.Seconds())
	ops := gwPlan(rand.New(rand.NewSource(seed)), gwRate, n)
	cfg := gatewayConfig()
	printConfig("gateway", cfg, map[string]any{
		"nodes": 2, "transport": "tcp", "files_node0": gwLocalFiles, "files_node1": gwRemoteFiles,
		"file_bytes": gwFileBytes, "tier_bytes_per_node": 32 << 20,
		"data_bytes":  (gwLocalFiles + gwRemoteFiles) * gwFileBytes,
		"offered_rps": gwRate, "schedule": gwSchedule.String(), "connections": gwConns,
		"seq_bytes": gwSeqBytes, "rand_bytes": gwRandBytes, "remote_share": gwRemoteShare,
		"write_share": gwWriteShare, "time_scale": gwTimeScale, "p99_limit": gwP99Limit.String(),
	})
	round := func(env *roundEnv) error { return gatewayRound(env, cfg, ops) }
	extra := func(out map[string]float64, acc *accum) error { return gatewayExtra(seed, cfg, out, acc) }
	return &plan{round: round, cfg: cfg, readSize: gwRandBytes, extra: extra}, nil
}

// gwTarget is a booted, warmed two-node cluster with its gateway.
type gwTarget struct {
	env    *roundEnv
	c      *hfetch.Cluster
	srv    *httptest.Server
	tr     *http.Transport
	client *http.Client
	fs     *pfs.FS
	writer []*hfetch.File // node 1 handles, for the overwrites

	wmu    sync.Mutex
	writes [gwLocalFiles + gwRemoteFiles][]interval // write calls per file
}

// gwBoot boots the cluster, creates the files and warms each file set on
// its node. The caller must close the target.
func gwBoot(env *roundEnv, cfg hfetch.Config) (*gwTarget, error) {
	c, err := env.boot(cfg)
	if err != nil {
		return nil, err
	}
	t := &gwTarget{env: env, c: c, fs: c.FS()}
	t.srv = httptest.NewServer(c.Node(0).GatewayHandler())
	t.tr = &http.Transport{MaxConnsPerHost: gwConns, MaxIdleConnsPerHost: gwConns, DisableCompression: true}
	t.client = &http.Client{Transport: t.tr}
	remote := newAgentReader(env, c, c.Node(1).NewClient(), env.seed*1000+int64(env.round))
	for i := 0; i < gwLocalFiles+gwRemoteFiles; i++ {
		if err := c.CreateFile(gwName(i), gwFileBytes); err != nil {
			t.close()
			return nil, err
		}
		f, err := remote.client.Open(gwName(i))
		if err != nil {
			t.close()
			return nil, err
		}
		t.writer = append(t.writer, f)
	}

	// Two sequential passes per file set, each followed by a placement
	// flush on both nodes: node 0's gateway warms the local set, node 1's
	// client the remote set.
	warm := &gwWorker{t: t, rng: rand.New(rand.NewSource(env.seed)), buf: make([]byte, gwSeqBytes)}
	buf := make([]byte, gwSeqBytes)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < gwLocalFiles+gwRemoteFiles; i++ {
			for off := int64(0); off < gwFileBytes; off += gwSeqBytes {
				if i < gwLocalFiles {
					warm.get(gwOp{file: i, off: off, n: gwSeqBytes})
				} else {
					remote.read(t.writer[i], buf, off, false)
				}
			}
		}
		c.Node(0).Flush()
		c.Node(1).Flush()
	}
	env.acc.merge(&warm.rec)
	env.acc.merge(&remote.rec)
	return t, nil
}

func (t *gwTarget) close() {
	for _, f := range t.writer {
		f.Close()
	}
	t.tr.CloseIdleConnections()
	t.srv.Close()
	t.c.Stop()
}

// gwWorker is one of the load generator's connections.
type gwWorker struct {
	t   *gwTarget
	rng *rand.Rand
	buf []byte
	rec clientRec
}

// play runs ops open-loop over gwConns workers: each operation is sent
// at its due time or as soon as a worker frees up, and timed from its
// due time. It returns when the last operation has completed.
func (t *gwTarget) play(ops []gwOp, seed int64) (time.Duration, []*gwWorker) {
	workers := make([]*gwWorker, gwConns)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range workers {
		workers[w] = &gwWorker{t: t, rng: rand.New(rand.NewSource(seed + int64(w))), buf: make([]byte, gwSeqBytes)}
		wg.Add(1)
		go func(wk *gwWorker) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				op := ops[i]
				due := start.Add(op.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				wk.rec.lagNS = append(wk.rec.lagNS, int64(time.Since(due)))
				if op.write {
					wk.write(op)
					wk.rec.writeNS = append(wk.rec.writeNS, int64(time.Since(due)))
				} else {
					wk.get(op)
					wk.rec.readNS = append(wk.rec.readNS, int64(time.Since(due)))
				}
			}
		}(workers[w])
	}
	wg.Wait()
	return time.Since(start), workers
}

// write overwrites a range through node 1's client, bumping the file's
// generation everywhere.
func (w *gwWorker) write(op gwOp) {
	w.rec.attempted++
	sp := w.t.env.spans.op()
	start := time.Now()
	done := w.t.noteWrite(op.file, start)
	err := w.t.writer[op.file].WriteAt(op.off, op.n)
	done()
	w.t.env.spans.add(sp, "agent.write", start, time.Since(start))
	if err != nil {
		w.rec.fail("write: " + err.Error())
	}
}

// gwAttempts bounds the retries of a response cut by a generation
// change (the gateway aborts rather than mix two generations).
const gwAttempts = 4

// get issues one range GET and verifies status, Content-Range and the
// sampled bytes of the generation the ETag names.
func (w *gwWorker) get(op gwOp) {
	w.rec.attempted++
	w.t.env.reads.Add(1)
	name := gwName(op.file)
	var pre probe
	pre.place(w.rng, op.off, op.n)
	sent := time.Now()
	if err := pre.expect(w.t.fs, name); err != nil {
		w.rec.fail("oracle: " + err.Error())
		return
	}
	sp := w.t.env.spans.op()
	wantRange := "bytes " + strconv.FormatInt(op.off, 10) + "-" + strconv.FormatInt(op.off+op.n-1, 10) +
		"/" + strconv.FormatInt(gwFileBytes, 10)
	for attempt := 0; attempt < gwAttempts; attempt++ {
		req, err := http.NewRequest(http.MethodGet, w.t.srv.URL+"/files/"+name, nil)
		if err != nil {
			w.rec.fail("request: " + err.Error())
			return
		}
		req.Header.Set("Range", "bytes="+strconv.FormatInt(op.off, 10)+"-"+strconv.FormatInt(op.off+op.n-1, 10))
		start := time.Now()
		resp, err := w.t.client.Do(req)
		if err != nil {
			w.rec.fail("http: " + err.Error())
			return
		}
		body := w.buf[:op.n]
		_, rerr := io.ReadFull(resp.Body, body)
		resp.Body.Close()
		w.t.env.spans.add(sp, "gateway.get", start, time.Since(start))
		switch {
		case resp.StatusCode != http.StatusPartialContent:
			w.rec.fail("status " + strconv.Itoa(resp.StatusCode))
			return
		case resp.Header.Get("Content-Range") != wantRange:
			w.rec.fail("content-range")
			return
		case rerr != nil:
			// Cut mid-stream by a generation change: retry, as a client
			// of the gateway is told to.
			w.rec.retries++
			continue
		}
		gen, err := strconv.ParseInt(strings.Trim(resp.Header.Get("ETag"), `"g`), 10, 64)
		if err != nil {
			w.rec.fail("etag")
			return
		}
		w.check(op, name, gen, &pre, body, sent)
		return
	}
	w.rec.fail("aborted on every attempt")
}

// check verifies body against the generation gen. A read that
// overlapped a write to its file may carry either the generation before
// the write or the one after; when the write's bump preceded the
// pre-read sample, no oracle for the older generation is left, and the
// read is counted as overlapped only. Any other mismatch is a failure.
func (w *gwWorker) check(op gwOp, name string, gen int64, pre *probe, body []byte, sent time.Time) {
	post := *pre
	if err := post.expect(w.t.fs, name); err != nil {
		w.rec.fail("oracle: " + err.Error())
		return
	}
	overlap := post.ver != pre.ver || w.t.overlapsWrite(op.file, sent, time.Now())
	if overlap {
		w.rec.overlapped++
	}
	switch {
	case gen == pre.ver && pre.matches(body, op.off):
	case gen == post.ver && post.matches(body, op.off):
	case overlap:
	default:
		w.rec.fail("wrong bytes")
		fmt.Fprintf(os.Stderr, "perfbench: wrong bytes: %s [%d,+%d) ETag generation %d, %v after the file's last write returned\n",
			name, op.off, op.n, gen, w.t.sinceWrite(op.file))
	}
}

// interval is one write call, from its start to its return; end is
// zero while the call runs.
type interval struct{ start, end time.Time }

// noteWrite records the start of a write call to file and returns the
// function that records its return.
func (t *gwTarget) noteWrite(file int, start time.Time) (done func()) {
	t.wmu.Lock()
	t.writes[file] = append(t.writes[file], interval{start: start})
	i := len(t.writes[file]) - 1
	t.wmu.Unlock()
	return func() {
		t.wmu.Lock()
		t.writes[file][i].end = time.Now()
		t.wmu.Unlock()
	}
}

// overlapsWrite reports whether a write call to file overlapped
// [from, to].
func (t *gwTarget) overlapsWrite(file int, from, to time.Time) bool {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	for _, iv := range t.writes[file] {
		if iv.start.Before(to) && (iv.end.IsZero() || from.Before(iv.end)) {
			return true
		}
	}
	return false
}

// sinceWrite is the time since the last write call to file returned.
func (t *gwTarget) sinceWrite(file int) time.Duration {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	ws := t.writes[file]
	if len(ws) == 0 {
		return 0
	}
	return time.Since(ws[len(ws)-1].end)
}

// gatewayRound boots and warms the fabric, then plays the schedule.
func gatewayRound(env *roundEnv, cfg hfetch.Config, ops []gwOp) error {
	t0 := startSetup()
	t, err := gwBoot(env, cfg)
	if err != nil {
		return err
	}
	defer t.close()
	before := [2]int64{}
	for i := range before {
		h, m := t.c.Node(i).Server().IOStats().Bytes()
		before[i] = h + m
	}
	hit0, _ := t.c.Node(0).Server().IOStats().Bytes()
	setup := t0.elapsed()

	makespan, workers := t.play(ops, env.seed*1000+int64(env.round))
	reads := int64(0)
	for _, w := range workers {
		reads += int64(len(w.rec.readNS))
		env.acc.merge(&w.rec)
	}

	hit, miss := t.c.Node(0).Server().IOStats().Bytes()
	h1, m1 := t.c.Node(1).Server().IOStats().Bytes()
	_, origin, _ := t.c.FS().Device().Stats()
	env.collect(t.c, 0)
	env.acc.addRound(roundStats{
		setup: setup, makespan: makespan, ops: reads,
		schedRead: hit + miss - before[0], schedHit: hit - hit0,
		roundRead: hit + miss + h1 + m1, origin: origin,
	})
	return nil
}

// gatewayExtra measures, on a fresh untraced fabric, the gateway's own
// allocations per warm range request and then the highest offered rate
// that holds the p99 limit without a growing backlog. Its operations
// are verified like any other and counted into acc.
func gatewayExtra(seed int64, cfg hfetch.Config, out map[string]float64, acc *accum) error {
	env := &roundEnv{seed: seed, acc: acc}
	t, err := gwBoot(env, cfg)
	if err != nil {
		return err
	}
	defer t.close()
	// Before the ramp: its overwrites would leave the replayed ranges
	// cold.
	out["gateway.allocs_per_req"] = handlerAllocs(t, seed)

	const step = time.Second
	rng := rand.New(rand.NewSource(seed + 7))
	for rate := float64(gwRate); rate <= 50_000; rate *= 1.25 {
		ops := gwPlan(rng, rate, int(rate*step.Seconds()))
		took, workers := t.play(ops, seed)
		var lat []int64
		for _, w := range workers {
			lat = append(lat, w.rec.readNS...)
			w.rec.readNS, w.rec.writeNS, w.rec.lagNS = nil, nil, nil // ramp latencies are not the run's
			acc.merge(&w.rec)
		}
		// A backlog shows as the step running past its schedule.
		if quantileNS(lat, 0.99) > float64(gwP99Limit) || took > step+step/5 {
			break
		}
		out["loadgen.max_rate_rps"] = rate
	}
	return nil
}

// discardWriter is a ResponseWriter that keeps nothing, so the requests
// replayed into the handler allocate only on the server's side.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// handlerAllocs replays warm 64 KiB range requests for node 0's own
// files straight into the gateway handler and returns heap allocations
// per request. The ranges lie in each file's first segment at seeded
// offsets, so they stay resident and form no sequential stream. The
// requests are built, and served once to warm pools, before the window.
func handlerAllocs(t *gwTarget, seed int64) float64 {
	const n = 2000
	h := t.c.Node(0).GatewayHandler()
	rng := rand.New(rand.NewSource(seed))
	build := func() []*http.Request {
		reqs := make([]*http.Request, n)
		for i := range reqs {
			off := rng.Int63n(t.c.Node(0).Server().Segmenter().Size() - gwRandBytes + 1)
			r := httptest.NewRequest(http.MethodGet, "/files/"+gwName(i%gwLocalFiles), nil)
			r.Header.Set("Range", "bytes="+strconv.FormatInt(off, 10)+"-"+strconv.FormatInt(off+gwRandBytes-1, 10))
			reqs[i] = r
		}
		return reqs
	}
	w := &discardWriter{h: http.Header{}}
	for _, r := range build() {
		clear(w.h)
		h.ServeHTTP(w, r)
	}
	t.c.Node(0).Flush()
	reqs := build()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, r := range reqs {
		clear(w.h)
		h.ServeHTTP(w, r)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}
