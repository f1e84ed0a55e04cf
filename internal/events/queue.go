package events

import (
	"sync"
	"sync/atomic"
	"time"

	"hfetch/internal/telemetry"
)

// Queue is the in-memory event queue hosted by the HFetch server's
// hardware monitor. Each tier (and the client I/O layer) pushes events
// into it; a pool of daemon threads consumes it.
//
// The queue is a bounded MPMC ring guarded by a mutex with condition
// variables. When full, the posting policy decides between blocking the
// producer (default, provides backpressure like a saturated kernel queue)
// and dropping the event (counted, mirroring inotify's IN_Q_OVERFLOW).
//
// The ring starts small (initialSlots) and doubles, up to its capacity,
// whenever a post finds it full: a daemon boots with eight 8k-slot
// shards, and allocating all of them up front costs megabytes that an
// idle or lightly loaded pipeline never touches.
type Queue struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpt  *sync.Cond
	buf      []Event
	head     int
	n        int
	capacity int // bound len(buf) grows to; full means n == capacity
	closed   bool
	drop     bool

	// exactWake makes TakeBatch wake min(freed slots, blocked producers)
	// instead of broadcasting to all of them. A shard of a ShardedQueue
	// has one drainer and potentially thousands of blocked producers;
	// broadcasting on every drained batch wakes the whole herd only for
	// most of it to find the ring full again and go back to sleep.
	exactWake bool
	// prodWait counts producers blocked in Post (guarded by mu); it
	// bounds the exact-wake signal count.
	prodWait int

	posted  atomic.Int64
	dropped atomic.Int64

	// tele, when set, times each event's stay in the queue (the
	// queue_wait pipeline stage); times holds per-slot enqueue stamps.
	tele  *telemetry.Registry
	times []int64
}

// initialSlots is a ring's starting length; it doubles on demand up to
// the queue's capacity.
const initialSlots = 64

// NewQueue creates a queue with the given capacity (minimum 1). If drop
// is true, Post discards events when the queue is full instead of
// blocking.
func NewQueue(capacity int, drop bool) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	q := &Queue{buf: make([]Event, min(capacity, initialSlots)), capacity: capacity, drop: drop}
	q.notFull = sync.NewCond(&q.mu)
	q.notEmpt = sync.NewCond(&q.mu)
	return q
}

// newShardQueue is NewQueue with exact-wake draining, used for the rings
// of a ShardedQueue (single drainer per ring).
func newShardQueue(capacity int, drop bool) *Queue {
	q := NewQueue(capacity, drop)
	q.exactWake = true
	return q
}

// SetTelemetry attaches a registry: the queue exports its depth and
// posted/dropped totals and times sampled events' wait between Post and
// dequeue as the queue_wait pipeline stage (see Registry.TimeSample).
// Call before Start/Post traffic; a nil registry is ignored.
func (q *Queue) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	q.AttachTelemetry(reg)
	reg.GaugeFunc("hfetch_event_queue_depth", "events currently queued", func() int64 { return int64(q.Len()) })
	reg.CounterFunc("hfetch_events_posted_total", "events accepted into the queue", q.posted.Load)
	reg.CounterFunc("hfetch_events_dropped_total", "events dropped on overflow (IN_Q_OVERFLOW)", q.dropped.Load)
}

// AttachTelemetry enables queue-wait span timing without registering any
// metric families. ShardedQueue uses it for its per-shard rings, which
// share the registry-level metric names and must not re-register them.
func (q *Queue) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	q.mu.Lock()
	q.tele = reg
	if q.times == nil {
		q.times = make([]int64, len(q.buf))
	}
	q.mu.Unlock()
}

// Post enqueues an event. It reports false when the event was dropped
// (drop policy and queue full) or the queue is closed.
func (q *Queue) Post(ev Event) bool {
	return q.postRef(&ev)
}

// postRef is Post without the value copy at the call boundary; the
// sharded router uses it so an event is copied once into the ring, not
// once per call layer. ev is only read, never retained.
//
//hfetch:hotpath
func (q *Queue) postRef(ev *Event) bool {
	q.mu.Lock()
	for q.n == q.capacity && !q.closed && !q.drop {
		q.prodWait++
		q.notFull.Wait()
		q.prodWait--
	}
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if q.n == q.capacity { // drop policy
		q.mu.Unlock()
		q.dropped.Add(1)
		return false
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	slot := (q.head + q.n) % len(q.buf)
	q.buf[slot] = *ev
	if q.times != nil {
		var stamp int64
		if q.tele.TimeSample() {
			stamp = time.Now().UnixNano()
		}
		q.times[slot] = stamp
	}
	q.n++
	q.notEmpt.Signal()
	q.mu.Unlock()
	q.posted.Add(1)
	return true
}

// grow doubles the ring (clipped at capacity), unrolling the queued
// events to the front of the new slice so FIFO order survives the
// wraparound; the enqueue stamps move in step. Called with q.mu held on
// a full ring below capacity.
func (q *Queue) grow() {
	size := min(2*len(q.buf), q.capacity)
	buf := make([]Event, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	if q.times != nil {
		times := make([]int64, size)
		k := copy(times, q.times[q.head:])
		copy(times[k:], q.times[:q.head])
		q.times = times
	}
	q.buf = buf
	q.head = 0
}

// takeStamp clears and returns the enqueue stamp of slot; called with
// q.mu held. Zero means telemetry is off or the slot predates it.
func (q *Queue) takeStamp(slot int) int64 {
	if q.times == nil {
		return 0
	}
	enq := q.times[slot]
	q.times[slot] = 0
	return enq
}

// spanWait records the queue_wait span outside the queue lock.
//
//hfetch:hotpath
func (q *Queue) spanWait(ev Event, enq int64) {
	if enq == 0 {
		return
	}
	start := time.Unix(0, enq)
	//lint:allow hotpath enq is nonzero only for posts that passed TimeSample; Since completes that sampled span
	q.tele.Span(telemetry.StageQueueWait, ev.File, -1, ev.Tier, start, time.Since(start))
}

// Take dequeues one event, blocking until one is available or the queue
// is closed and drained. ok is false only on close-and-drained.
//
//hfetch:hotpath
func (q *Queue) Take() (ev Event, ok bool) {
	q.mu.Lock()
	for q.n == 0 && !q.closed {
		q.notEmpt.Wait()
	}
	if q.n == 0 {
		q.mu.Unlock()
		return Event{}, false
	}
	ev = q.buf[q.head]
	enq := q.takeStamp(q.head)
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.notFull.Signal()
	q.mu.Unlock()
	q.spanWait(ev, enq)
	return ev, true
}

// TakeBatch dequeues up to max events in one lock acquisition, blocking
// until at least one is available or the queue is closed and drained.
//
//hfetch:hotpath
func (q *Queue) TakeBatch(dst []Event) (n int, ok bool) {
	if len(dst) == 0 {
		return 0, true
	}
	q.mu.Lock()
	for q.n == 0 && !q.closed {
		q.notEmpt.Wait()
	}
	if q.n == 0 {
		q.mu.Unlock()
		return 0, false
	}
	var stamps []int64
	if q.times != nil {
		stamps = make([]int64, 0, len(dst))
	}
	for n < len(dst) && q.n > 0 {
		dst[n] = q.buf[q.head]
		if stamps != nil {
			stamps = append(stamps, q.takeStamp(q.head))
		}
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		n++
	}
	if q.exactWake {
		// Wake min(freed slots, blocked producers): each admitted producer
		// frees nothing, so no wake chain is needed beyond n. When every
		// waiter gets a slot, one Broadcast beats n runtime calls.
		if wake := q.prodWait; wake > 0 {
			if wake <= n {
				q.notFull.Broadcast()
			} else {
				for i := 0; i < n; i++ {
					q.notFull.Signal()
				}
			}
		}
	} else {
		q.notFull.Broadcast()
	}
	q.mu.Unlock()
	for i, enq := range stamps {
		q.spanWait(dst[i], enq)
	}
	return n, true
}

// Close marks the queue closed. Pending events can still be drained;
// blocked producers and consumers are released.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.notFull.Broadcast()
	q.notEmpt.Broadcast()
	q.mu.Unlock()
}

// Len returns the number of queued events.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Stats returns the cumulative posted and dropped counts.
func (q *Queue) Stats() (posted, dropped int64) {
	return q.posted.Load(), q.dropped.Load()
}
