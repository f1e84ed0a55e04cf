// Package monitor implements HFetch's hardware monitor: it discovers the
// configured tiers, hosts the in-memory event queue every tier (and the
// client I/O layer) pushes into, and serves that queue with a pool of
// daemon threads that forward events to the file segment auditor. It
// also probes each tier's remaining capacity periodically and reports it
// as OpCapacity events — the second event kind the paper describes.
//
// Two pipeline shapes are supported, selected by Config.Shards:
//
//   - Legacy (Shards <= 1): one MPMC queue drained by Daemons workers.
//     Matches the paper's single "event queue + daemon pool" description
//     but serializes every producer and consumer on one mutex, and two
//     daemons may process events of the same file concurrently.
//   - Sharded (Shards > 1): events hash by file onto Shards independent
//     rings, each drained by WorkersPerShard dedicated workers. With the
//     default one worker per shard, events of a file are handled in
//     exactly the order they were posted — the property segment
//     sequencing and score folding rely on — while distinct files
//     proceed in parallel with no shared lock.
package monitor

import (
	"sync"
	"sync/atomic"
	"time"

	"hfetch/internal/events"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

// Handler consumes monitored events (implemented by the auditor).
type Handler interface {
	HandleEvent(events.Event)
}

// BatchHandler is optionally implemented by handlers that want one call
// per drained batch instead of one per event. The auditor implements it
// to aggregate score updates and hand the placement engine a single
// batched delivery per drain cycle.
type BatchHandler interface {
	HandleBatch([]events.Event)
}

// Config configures a Monitor.
type Config struct {
	// Daemons is the number of consumer threads for the legacy
	// single-queue pipeline (default 4). Ignored when Shards > 1.
	Daemons int
	// Shards selects the event pipeline: <= 1 keeps the legacy single
	// queue; > 1 hashes events by file onto that many independent rings.
	Shards int
	// WorkersPerShard is the worker count per shard (default 1). One
	// worker per shard preserves per-file event order; more trade that
	// order for intra-shard parallelism, like the legacy pool does.
	WorkersPerShard int
	// QueueCap bounds the event queue (default 64k events, split evenly
	// across shards when sharded).
	QueueCap int
	// Drop selects the overflow policy: true drops events when the queue
	// is full (inotify IN_Q_OVERFLOW), false applies backpressure.
	Drop bool
	// CapacityInterval is how often tier capacities are probed;
	// 0 disables probing.
	CapacityInterval time.Duration
	// Batch is the daemon batch size when draining the queue. Default 64
	// for the legacy pool; sharded workers default to their ring's full
	// capacity (capped at 2048) since a shard has a single drainer and a
	// whole-ring drain costs one lock acquisition however deep the ring is.
	// A daemon's buffer starts at 64 events and doubles toward Batch as
	// full drains demand it.
	Batch int
	// Telemetry, when non-nil, exports queue depth/wait and consumption
	// counters; nil disables instrumentation at ~zero cost.
	Telemetry *telemetry.Registry
}

// Monitor is safe for concurrent use.
type Monitor struct {
	cfg     Config
	queue   *events.Queue        // legacy pipeline; nil when sharded
	sharded *events.ShardedQueue // sharded pipeline; nil when legacy
	handler Handler
	batch   BatchHandler // handler's batch fast path, when implemented
	hier    *tiers.Hierarchy

	wg   sync.WaitGroup
	stop chan struct{}
	once sync.Once

	consumed atomic.Int64
}

// New creates a monitor feeding handler; hier may be nil (no capacity
// probes).
func New(cfg Config, handler Handler, hier *tiers.Hierarchy) *Monitor {
	if cfg.Daemons <= 0 {
		cfg.Daemons = 4
	}
	if cfg.WorkersPerShard <= 0 {
		cfg.WorkersPerShard = 1
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1 << 16
	}
	if cfg.Batch <= 0 {
		if cfg.Shards > 1 {
			cfg.Batch = cfg.QueueCap / cfg.Shards
			if cfg.Batch > 2048 {
				cfg.Batch = 2048
			}
			if cfg.Batch < 64 {
				cfg.Batch = 64
			}
		} else {
			cfg.Batch = 64
		}
	}
	m := &Monitor{
		cfg:     cfg,
		handler: handler,
		hier:    hier,
		stop:    make(chan struct{}),
	}
	if bh, ok := handler.(BatchHandler); ok {
		m.batch = bh
	}
	if cfg.Shards > 1 {
		m.sharded = events.NewSharded(cfg.Shards, cfg.QueueCap, cfg.Drop)
	} else {
		m.queue = events.NewQueue(cfg.QueueCap, cfg.Drop)
	}
	if cfg.Telemetry != nil {
		if m.sharded != nil {
			m.sharded.SetTelemetry(cfg.Telemetry)
		} else {
			m.queue.SetTelemetry(cfg.Telemetry)
		}
		cfg.Telemetry.CounterFunc("hfetch_events_consumed_total",
			"events handled by the daemon pool", m.consumed.Load)
	}
	return m
}

// Queue exposes the legacy event queue so tiers and the I/O layer can
// push; nil when the sharded pipeline is active (use Post / Backlog).
func (m *Monitor) Queue() *events.Queue { return m.queue }

// Sharded exposes the sharded queue; nil when the legacy pipeline is
// active.
func (m *Monitor) Sharded() *events.ShardedQueue { return m.sharded }

// Post pushes one event into the queue. Read events are stamped with a
// lifecycle trace ID at this boundary — the monitor is the ingestion
// point the paper's inotify shim corresponds to — so the trace covers
// everything downstream.
//
//hfetch:hotpath
func (m *Monitor) Post(ev events.Event) bool {
	if ev.Op == events.OpRead && ev.Trace == 0 {
		if lc := m.cfg.Telemetry.Lifecycle(); lc != nil {
			ev.Trace = lc.OnEvent(ev.File, ev.Offset, ev.Time)
		}
	}
	if m.sharded != nil {
		return m.sharded.Post(ev)
	}
	return m.queue.Post(ev)
}

// Backlog returns the number of queued, not-yet-drained events across
// all shards.
func (m *Monitor) Backlog() int {
	if m.sharded != nil {
		return m.sharded.Len()
	}
	return m.queue.Len()
}

// Quiescent reports whether every event accepted so far has been fully
// handled: audited and its score update delivered to the engine, not
// merely popped off the ring. Backlog can read zero while a daemon
// still holds a popped batch; the consumed counter only advances after
// the handler returns, which closes that window. Posted is read before
// consumed so a true result covers at least the events posted up to
// the call.
func (m *Monitor) Quiescent() bool {
	posted, _ := m.QueueStats()
	return m.consumed.Load() >= posted
}

// QueueStats returns the cumulative posted and dropped counts.
func (m *Monitor) QueueStats() (posted, dropped int64) {
	if m.sharded != nil {
		return m.sharded.Stats()
	}
	return m.queue.Stats()
}

// Start launches the daemon pool (and the capacity prober when
// configured).
func (m *Monitor) Start() {
	if m.sharded != nil {
		for i := 0; i < m.sharded.NumShards(); i++ {
			q := m.sharded.Shard(i)
			for w := 0; w < m.cfg.WorkersPerShard; w++ {
				m.wg.Add(1)
				//lint:allow goleak daemon joins via the queue, not a signal field: Stop closes the shard and TakeBatch returns ok=false once drained
				go m.daemon(q)
			}
		}
	} else {
		for i := 0; i < m.cfg.Daemons; i++ {
			m.wg.Add(1)
			//lint:allow goleak daemon joins via the queue, not a signal field: Stop closes the queue and TakeBatch returns ok=false once drained
			go m.daemon(m.queue)
		}
	}
	if m.cfg.CapacityInterval > 0 && m.hier != nil {
		m.wg.Add(1)
		go m.prober()
	}
}

// Stop closes the queue, waits for the daemons to drain it, and returns.
func (m *Monitor) Stop() {
	m.once.Do(func() { close(m.stop) })
	if m.sharded != nil {
		m.sharded.Close()
	} else {
		m.queue.Close()
	}
	m.wg.Wait()
}

// Consumed returns the number of events handled so far.
func (m *Monitor) Consumed() int64 { return m.consumed.Load() }

// daemon drains q until it is closed and empty. Each shard of the
// sharded pipeline gets its own daemons; the legacy pipeline shares one.
//
//hfetch:hotpath
func (m *Monitor) daemon(q *events.Queue) {
	defer m.wg.Done()
	// Grown on demand like the rings it drains (see Config.Batch).
	buf := make([]events.Event, min(m.cfg.Batch, 64))
	for {
		n, ok := q.TakeBatch(buf)
		if !ok {
			return
		}
		if m.batch != nil {
			m.batch.HandleBatch(buf[:n])
		} else {
			for i := 0; i < n; i++ {
				m.handler.HandleEvent(buf[i])
			}
		}
		m.consumed.Add(int64(n))
		if n == len(buf) && n < m.cfg.Batch {
			//lint:allow hotpath doubling growth: at most log2(Batch/64) allocations per daemon lifetime
			buf = make([]events.Event, min(2*n, m.cfg.Batch))
		}
	}
}

func (m *Monitor) prober() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.CapacityInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			now := time.Now()
			for _, s := range m.hier.Stores() {
				m.Post(events.Event{
					Op: events.OpCapacity, Tier: s.Name(), Free: s.Free(), Time: now,
				})
			}
		}
	}
}
