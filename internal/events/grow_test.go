package events

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"hfetch/internal/telemetry"
)

// Every ring slot is one Event, so its size is the ring's footprint per
// slot; Miss must stay in Via's padding word.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 120 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want 120", got)
	}
}

// A ring that grows while its queued events wrap around the end of the
// slice must hand them out in post order.
func TestQueueGrowsAcrossWraparound(t *testing.T) {
	q := NewQueue(1000, false)
	if len(q.buf) != initialSlots {
		t.Fatalf("ring starts at %d slots, want %d", len(q.buf), initialSlots)
	}
	next, want := int64(0), int64(0)
	post := func(k int) {
		for i := 0; i < k; i++ {
			if !q.Post(Event{Offset: next}) {
				t.Fatalf("post %d refused", next)
			}
			next++
		}
	}
	take := func(k int) {
		for i := 0; i < k; i++ {
			ev, ok := q.Take()
			if !ok || ev.Offset != want {
				t.Fatalf("take = %d %v, want %d", ev.Offset, ok, want)
			}
			want++
		}
	}
	// Fill, move head off zero, wrap, then overflow each size so every
	// growth step (64→128→256→512→1000) copies a wrapped ring.
	for _, size := range []int{64, 128, 256, 512} {
		post(size - q.Len())
		take(size / 3)
		post(size / 3) // wraps: the ring is full with head > 0
		if len(q.buf) != size {
			t.Fatalf("ring grew early: %d slots, want %d", len(q.buf), size)
		}
		post(1)
	}
	if len(q.buf) != 1000 {
		t.Fatalf("ring at %d slots, want capacity 1000", len(q.buf))
	}
	take(q.Len())
	if want != next {
		t.Fatalf("took %d events, posted %d", want, next)
	}
}

// Producers posting through several growth steps while a drainer runs
// concurrently: every event arrives once, in per-producer order, and
// every enqueue stamp travels with its event through the copies.
func TestQueueGrowthConcurrentDrain(t *testing.T) {
	const producers, perProducer = 4, 5000
	reg := telemetry.NewRegistry()
	reg.SetTimeSampling(1)
	q := NewQueue(1500, false)
	q.AttachTelemetry(reg)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Post(Event{Op: OpRead, File: "f", Offset: int64(i), Length: int64(p)})
			}
		}(p)
	}
	// Start draining only once the producers have grown the ring
	// through every step to capacity and blocked there.
	for q.Len() < 1500 {
		time.Sleep(100 * time.Microsecond)
	}
	got := 0
	last := make([]int64, producers)
	for i := range last {
		last[i] = -1
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		q.Close()
		close(done)
	}()
	dst := make([]Event, 37)
	for {
		n, ok := q.TakeBatch(dst)
		if !ok {
			break
		}
		for _, ev := range dst[:n] {
			p := ev.Length
			if ev.Offset != last[p]+1 {
				t.Fatalf("producer %d: event %d after %d", p, ev.Offset, last[p])
			}
			last[p] = ev.Offset
			got++
		}
	}
	<-done
	if got != producers*perProducer {
		t.Fatalf("drained %d events, want %d", got, producers*perProducer)
	}
	if len(q.buf) != 1500 {
		t.Fatalf("ring at %d slots, want capacity 1500", len(q.buf))
	}
	if n := reg.StageHist(telemetry.StageQueueWait).Count(); n != int64(got) {
		t.Fatalf("queue_wait spans = %d, want one per event (%d)", n, got)
	}
}

// At capacity a grown ring behaves exactly like a preallocated one:
// the block policy holds the producer until a slot frees, the drop
// policy counts the overflow.
func TestQueueFullAfterGrowth(t *testing.T) {
	const capacity = 200
	blocking := NewQueue(capacity, false)
	for i := 0; i < capacity; i++ {
		blocking.Post(Event{Offset: int64(i)})
	}
	done := make(chan struct{})
	go func() {
		blocking.Post(Event{Offset: capacity})
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Post past capacity did not block")
	case <-time.After(20 * time.Millisecond):
	}
	if len(blocking.buf) != capacity {
		t.Fatalf("ring at %d slots, want %d", len(blocking.buf), capacity)
	}
	blocking.Take()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("blocked Post did not resume after a Take")
	}

	dropping := NewQueue(capacity, true)
	for i := 0; i < capacity; i++ {
		if !dropping.Post(Event{}) {
			t.Fatalf("post %d below capacity dropped", i)
		}
	}
	if dropping.Post(Event{}) {
		t.Fatal("post past capacity accepted")
	}
	if posted, dropped := dropping.Stats(); posted != capacity || dropped != 1 {
		t.Fatalf("stats = %d posted %d dropped, want %d/1", posted, dropped, capacity)
	}
}
