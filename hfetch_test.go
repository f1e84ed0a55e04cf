package hfetch

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"hfetch/internal/core/seg"
)

// fastConfig returns a free-device config so API tests run instantly.
func fastConfig(nodes int) Config {
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.SegmentSize = 4096
	cfg.EngineUpdateThreshold = ReactivenessHigh
	for i := range cfg.Tiers {
		cfg.Tiers[i].Latency = 0
		cfg.Tiers[i].Bandwidth = 0
	}
	cfg.PFS = PFSSpec{}
	return cfg
}

func TestQuickstartFlow(t *testing.T) {
	cluster, err := NewCluster(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.CreateFile("data/x", 64*4096); err != nil {
		t.Fatal(err)
	}
	client := cluster.Node(0).NewClient()
	f, err := client.Open("data/x")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	cluster.Node(0).Flush()
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if client.Stats().Hits() == 0 {
		t.Fatalf("warm read must hit: %s", client.Stats())
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Nodes != 1 || len(cfg.Tiers) != 3 {
		t.Fatalf("DefaultConfig = %+v", cfg)
	}
	if cfg.Tiers[0].Name != "ram" || !cfg.Tiers[2].Shared {
		t.Fatal("tier defaults wrong")
	}
}

func TestMultiNodeSharedView(t *testing.T) {
	cluster, err := NewCluster(fastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	cluster.CreateFile("f", 16*4096)

	// Node 0's client warms the shared burst buffer / statistics.
	c0 := cluster.Node(0).NewClient()
	f0, _ := c0.Open("f")
	buf := make([]byte, 4096)
	for off := int64(0); off < 16*4096; off += 4096 {
		f0.ReadAt(buf, off)
	}
	cluster.Node(0).Flush()

	// Node 1's client sees the same global segment mappings: segments
	// resident in node 0's tiers are served through the node-to-node
	// communicator, so they are hits, not PFS reads.
	c1 := cluster.Node(1).NewClient()
	f1, _ := c1.Open("f")
	got := make([]byte, 4096)
	want := make([]byte, 4096)
	for off := int64(0); off < 16*4096; off += 4096 {
		f1.ReadAt(got, off)
		cluster.FS().ReadAt("f", off, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("remote read corrupted data at %d", off)
		}
	}
	if c1.Stats().Hits() == 0 {
		t.Fatalf("cross-node hits expected, got %s", c1.Stats())
	}
	reads, _ := cluster.Node(1).Server().RemoteStats()
	_, serves := cluster.Node(0).Server().RemoteStats()
	if reads == 0 || serves == 0 {
		t.Fatalf("node-to-node data path unused: reads=%d serves=%d", reads, serves)
	}
	f0.Close()
	f1.Close()
}

func TestConcurrentClientsSeparateFiles(t *testing.T) {
	cluster, err := NewCluster(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	for i := 0; i < 4; i++ {
		cluster.CreateFile(string(rune('a'+i)), 8*4096)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cluster.Node(0).NewClient()
			f, err := c.Open(string(rune('a' + i)))
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			buf := make([]byte, 4096)
			for pass := 0; pass < 3; pass++ {
				for off := int64(0); off < 8*4096; off += 4096 {
					if _, err := f.ReadAt(buf, off); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if _, ok := cluster.Node(0).Server().Hierarchy().ExclusiveOK(); !ok {
		t.Fatal("exclusivity violated")
	}
}

func TestDataIntegrityThroughPublicAPI(t *testing.T) {
	cluster, _ := NewCluster(fastConfig(1))
	defer cluster.Stop()
	const size = 32 * 4096
	cluster.CreateFile("f", size)
	want := make([]byte, size)
	cluster.FS().ReadAt("f", 0, want)

	c := cluster.Node(0).NewClient()
	f, _ := c.Open("f")
	defer f.Close()
	got := make([]byte, size)
	for pass := 0; pass < 2; pass++ {
		for off := 0; off < size; off += 4096 {
			f.ReadAt(got[off:off+4096], int64(off))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pass %d: corrupted data through public API", pass)
		}
		cluster.Node(0).Flush()
	}
}

func TestTimeScaleSpeedsDevices(t *testing.T) {
	cfg := fastConfig(1)
	cfg.PFS = PFSSpec{Latency: 50 * time.Millisecond, Bandwidth: 1e9, Servers: 1}
	cfg.TimeScale = 0.01 // 50ms -> 500µs
	cluster, _ := NewCluster(cfg)
	defer cluster.Stop()
	cluster.CreateFile("f", 4096)
	c := cluster.Node(0).NewClient()
	f, _ := c.Open("f")
	defer f.Close()
	start := time.Now()
	f.ReadAt(make([]byte, 4096), 0)
	if el := time.Since(start); el > 20*time.Millisecond {
		t.Fatalf("scaled PFS read took %v, want ~0.5ms", el)
	}
}

// With stream detection on, a client's sequential reader drives its own
// prefetching: the first segment's misses and the stream's readahead
// hints run placement at once, so the segments ahead are resident
// before the reader gets there, with the interval and the update
// threshold both out of reach.
func TestClientStreamPrefetchesAhead(t *testing.T) {
	cfg := fastConfig(1)
	cfg.EngineInterval = time.Hour
	cfg.EngineUpdateThreshold = ReactivenessLow
	cfg.Gateway.StreamDetect = true
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	const segSize = 4096
	if err := cluster.CreateFile("data/seq", 8*segSize); err != nil {
		t.Fatal(err)
	}
	client := cluster.Node(0).NewClient()
	f, err := client.Open("data/seq")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, segSize/4)
	for off := int64(0); off < segSize; off += int64(len(buf)) {
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	srv := cluster.Node(0).Server()
	deadline := time.Now().Add(2 * time.Second)
	for _, idx := range []int64{1, 2} {
		for {
			if _, _, ok := srv.Lookup(seg.ID{File: "data/seq", Index: idx}); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("hinted segment %d never placed", idx)
			}
			time.Sleep(time.Millisecond)
		}
	}
	before := client.Stats().Hits()
	for off := int64(segSize); off < 3*segSize; off += int64(len(buf)) {
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if got := client.Stats().Hits() - before; got != 8 {
		t.Fatalf("%d of 8 reads of the hinted segments hit", got)
	}
}
