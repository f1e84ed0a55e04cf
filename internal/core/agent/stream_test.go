package agent

import (
	"sync"
	"testing"
	"time"

	"hfetch/internal/core/server"
	"hfetch/internal/events"
)

// recAPI records what an agent sends its server, then forwards it.
type recAPI struct {
	*server.Server
	mu     sync.Mutex
	reads  []events.Event
	hinted []int64 // segment indexes, one entry per hint posted
}

func (r *recAPI) PostEvent(ev events.Event) {
	r.mu.Lock()
	r.reads = append(r.reads, ev)
	r.mu.Unlock()
	r.Server.PostEvent(ev)
}

func (r *recAPI) PostHints(file string, first, last, size int64, at time.Time) int {
	r.mu.Lock()
	for idx := first; idx <= last; idx++ {
		r.hinted = append(r.hinted, idx)
	}
	r.mu.Unlock()
	return r.Server.PostHints(file, first, last, size, at)
}

// The rig's segments are 1 KiB.
const testSeg = 1024

func TestSequentialReaderHintsEachSegmentOnce(t *testing.T) {
	r := newRig(t, 1<<20, 1<<20)
	const size = 10*testSeg + 300 // 11 segments, the last one short
	r.fs.Create("f", size)
	api := &recAPI{Server: r.srv}
	a := New(api, r.fs, nil)
	a.SetStreamDetect(0, 2)
	f, err := a.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 256)
	for off := int64(0); off < size; off += int64(len(buf)) {
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[int64]int{}
	for _, idx := range api.hinted {
		seen[idx]++
	}
	for idx := int64(1); idx <= 10; idx++ {
		if seen[idx] != 1 {
			t.Errorf("segment %d hinted %d times, want once", idx, seen[idx])
		}
	}
	if len(seen) != 10 {
		t.Errorf("hinted segments %v, want exactly 1..10 (none at or past EOF, never the first)", api.hinted)
	}
}

func TestRandomReaderPostsNoHints(t *testing.T) {
	r := newRig(t, 1<<20, 1<<20)
	r.fs.Create("f", 64*testSeg)
	api := &recAPI{Server: r.srv}
	a := New(api, r.fs, nil)
	a.SetStreamDetect(0, 2)
	f, err := a.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 256)
	// Every jump lands more than one window (a segment) away from where
	// the previous read ended.
	for _, seg := range []int64{0, 40, 10, 50, 20, 60, 30, 5, 45} {
		if _, err := f.ReadAt(buf, seg*testSeg); err != nil {
			t.Fatal(err)
		}
	}
	if len(api.hinted) != 0 {
		t.Fatalf("random reader hinted %v", api.hinted)
	}
}

func TestStreamDetectOffByDefault(t *testing.T) {
	r := newRig(t, 1<<20, 1<<20)
	r.fs.Create("f", 8*testSeg)
	api := &recAPI{Server: r.srv}
	f, err := New(api, r.fs, nil).Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 256)
	for off := int64(0); off < 8*testSeg; off += int64(len(buf)) {
		f.ReadAt(buf, off)
	}
	if len(api.hinted) != 0 {
		t.Fatalf("agent without SetStreamDetect hinted %v", api.hinted)
	}
}

func TestPFSServedReadCarriesMiss(t *testing.T) {
	r := newRig(t, 1<<20, 1<<20)
	r.fs.Create("f", 4*testSeg)
	api := &recAPI{Server: r.srv}
	a := New(api, r.fs, nil)
	f, err := a.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 512)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	r.srv.Flush() // place the segment just read
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Hits() == 0 {
		t.Fatalf("second read should hit; stats: %s", a.Stats())
	}
	if len(api.reads) != 2 {
		t.Fatalf("posted %d read events, want 2", len(api.reads))
	}
	if !api.reads[0].Miss {
		t.Fatal("cold read served from the PFS posted without Miss")
	}
	if api.reads[1].Miss {
		t.Fatal("read served from a tier posted with Miss")
	}
}
