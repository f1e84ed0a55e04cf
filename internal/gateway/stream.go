package gateway

import (
	"sync"

	"hfetch/internal/core/seg"
)

// streamShards stripes the tracker so concurrent clients don't
// serialize on one mutex.
const streamShards = 16

// maxStreamsPerShard bounds tracker memory: when a shard fills, it is
// reset wholesale. Losing tracked streams only delays re-detection by
// one request; the bound matters more than the tail.
const maxStreamsPerShard = 4096

// streamTable keeps one sequential-stream detector (seg.Stream, the
// same one agent file handles keep) per (client, file) pair. External
// clients have no handle the gateway could hang the state on, so the
// table stands in for one. The detected stream is the paper's
// sequencing signal as seen from outside the process — the gateway
// turns it into readahead hints.
type streamTable struct {
	segr      *seg.Segmenter
	window    int64
	lookahead int
	shards    [streamShards]struct {
		mu sync.Mutex
		m  map[string]*seg.Stream
	}
}

func newStreamTable(segr *seg.Segmenter, window int64, lookahead int) *streamTable {
	t := &streamTable{segr: segr, window: window, lookahead: lookahead}
	for i := range t.shards {
		t.shards[i].m = make(map[string]*seg.Stream)
	}
	return t
}

// note records one request of a file of size bytes, reports whether it
// continues a detected stream, and returns the segments [first, last]
// to hint (first > last: none; see seg.Stream.Advance).
func (t *streamTable) note(client, file string, off, length, size int64) (detected bool, first, last int64) {
	key := client + "\x00" + file
	sh := &t.shards[fnv32(key)%streamShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.m[key]
	if st == nil {
		if len(sh.m) >= maxStreamsPerShard {
			sh.m = make(map[string]*seg.Stream)
		}
		st = &seg.Stream{}
		sh.m[key] = st
	}
	first, last = st.Advance(t.segr, off, length, size, t.window, t.lookahead)
	return st.Detected(), first, last
}

// fnv32 hashes the tracker key (FNV-1a) for shard selection.
func fnv32(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}
