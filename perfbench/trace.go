package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hfetch"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

// perLayer lists the per-layer metrics a traced run reports, with their
// units. A layer that does no work on a workload reports 0.
var perLayer = []struct{ name, unit string }{
	{"agent.read_us_p50", "us"}, {"agent.read_us_p99", "us"}, {"agent.write_us_p50", "us"},
	{"tiers.bytes_copied_per_read", "bytes/read"}, {"tiers.slab_hit_ratio", "ratio"},
	{"tiers.ram.used_bytes", "bytes"}, {"tiers.nvme.used_bytes", "bytes"}, {"tiers.bb.used_bytes", "bytes"},
	{"tiers.ram.busy_ratio", "ratio"}, {"tiers.nvme.busy_ratio", "ratio"}, {"tiers.bb.busy_ratio", "ratio"},
	{"events.posted", "count"}, {"events.dropped", "count"},
	{"events.queue_wait_us_p50", "us"}, {"events.queue_wait_us_p99", "us"},
	{"auditor.events", "count"}, {"auditor.invalidations", "count"},
	{"auditor.audit_us_p50", "us"}, {"auditor.audit_us_p99", "us"},
	{"dhm.keys", "count"},
	{"placement.passes", "count"}, {"placement.fetches", "count"}, {"placement.promotions", "count"},
	{"placement.demotions", "count"}, {"placement.evictions", "count"}, {"placement.failed_moves", "count"},
	{"placement.decide_us_p50", "us"}, {"placement.decide_us_p99", "us"},
	{"mover.submitted", "count"}, {"mover.executed", "count"}, {"mover.coalesced", "count"},
	{"mover.superseded", "count"}, {"mover.cancelled", "count"}, {"mover.retried", "count"},
	{"mover.failed", "count"}, {"mover.queue_us_p99", "us"},
	{"mover.timely", "count"}, {"mover.late", "count"}, {"mover.wasted", "count"}, {"mover.redundant", "count"},
	{"mover.useful_ratio", "ratio"},
	{"server.stalls", "count"}, {"server.stall_rescues", "count"},
	{"server.zero_copy_bytes", "bytes"}, {"server.remote_reads", "count"},
	{"ioclient.fetches", "count"}, {"ioclient.bytes_moved", "bytes"},
	{"pfs.ops", "count"}, {"pfs.bytes", "bytes"}, {"pfs.busy_ratio", "ratio"},
	{"devsim.ram.overshoot", "ratio"}, {"devsim.nvme.overshoot", "ratio"},
	{"devsim.bb.overshoot", "ratio"}, {"devsim.pfs.overshoot", "ratio"},
	{"cluster.remote_read_share", "ratio"}, {"cluster.fetch_us_p50", "us"}, {"cluster.fetch_us_p99", "us"},
	{"cluster.fallbacks", "count"},
	{"comm.requests", "count"}, {"comm.bytes_out", "bytes"}, {"comm.request_us_p99", "us"},
	{"gateway.handler_us_p50", "us"}, {"gateway.handler_us_p99", "us"}, {"gateway.allocs_per_req", "allocs/req"},
	{"gateway.shed", "count"}, {"gateway.aborted", "count"}, {"gateway.hints", "count"},
	{"loadgen.lag_p99_us", "us"}, {"loadgen.max_rate_rps", "1/s"}, {"loadgen.retries", "count"},
	{"verify.overlapped_reads", "count"},
	{"trace.overhead", "ratio"},
}

// ---- benchmark-side spans ----

// span is one call the benchmark made into a layer. Spans of one
// operation share Op.
type span struct {
	Op    uint64 `json:"op"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

// maxSpans bounds the in-memory span log (about 10 MB); later spans are
// counted as dropped.
const maxSpans = 200_000

// spanLog keeps the traced rounds' spans in memory until the run ends.
// A nil log records nothing. Once full it only counts, without taking
// the lock, so a long traced run does not serialize its clients on it.
type spanLog struct {
	base    time.Time
	nextOp  atomic.Uint64
	full    atomic.Bool
	dropped atomic.Int64
	mu      sync.Mutex
	spans   []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// op returns a fresh operation ID (0 on a nil log).
func (l *spanLog) op() uint64 {
	if l == nil {
		return 0
	}
	return l.nextOp.Add(1)
}

func (l *spanLog) add(op uint64, name string, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	if l.full.Load() {
		l.dropped.Add(1)
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Op: op, Name: name, Start: int64(start.Sub(l.base)), Dur: int64(d)})
	if len(l.spans) >= maxSpans {
		l.full.Store(true)
	}
	l.mu.Unlock()
}

// write saves the spans under .bench_build/trace in the working
// directory.
func (l *spanLog) write(workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	raw, err := json.Marshal(struct {
		Spans   []span `json:"spans"`
		Dropped int64  `json:"dropped"`
	}{l.spans, l.dropped.Load()})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// ---- per-layer counters ----

// layerStart is the process-wide state at a round's boot.
type layerStart struct {
	at     time.Time
	slab   tiers.SlabStats
	copied int64
}

// layerAcc sums the per-layer counters of every traced round. Each round
// boots a fresh cluster, so cumulative getters are per-round values.
type layerAcc struct {
	mu     sync.Mutex
	sum    map[string]float64
	hist   map[string]*telemetry.HistSnapshot
	used   map[string][]float64 // per tier, bytes resident at each round's end
	busy   map[string]float64   // per device, modeled busy nanoseconds
	window map[string]float64   // per device, channel-nanoseconds observed
}

func newLayerAcc() *layerAcc {
	return &layerAcc{
		sum:    map[string]float64{},
		hist:   map[string]*telemetry.HistSnapshot{},
		used:   map[string][]float64{},
		busy:   map[string]float64{},
		window: map[string]float64{},
	}
}

func (l *layerAcc) addHist(name string, h telemetry.HistSnapshot) {
	cur := l.hist[name]
	if cur == nil {
		cur = &telemetry.HistSnapshot{}
		l.hist[name] = cur
	}
	cur.Merge(h)
}

// collect reads every layer's getters on a traced round's cluster before
// it stops. gatewayNode is the node serving the gateway (-1 for none),
// whose reads define cluster.remote_read_share.
func (e *roundEnv) collect(c *hfetch.Cluster, gatewayNode int) {
	l := e.layers
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	win := float64(time.Since(e.base.at))
	add := func(k string, v int64) { l.sum[k] += float64(v) }

	seenStore := map[*tiers.Store]bool{}
	usedNow := map[string]float64{}
	for i := 0; i < c.Nodes(); i++ {
		srv := c.Node(i).Server()
		eng := srv.Engine().Counters()
		add("placement.passes", eng.Runs)
		add("placement.fetches", eng.Placements)
		add("placement.promotions", eng.Promotions)
		add("placement.demotions", eng.Demotions)
		add("placement.evictions", eng.Evictions)
		add("placement.failed_moves", eng.FailedMoves)
		mv := srv.Engine().MoverStats()
		add("mover.submitted", mv.Submitted)
		add("mover.executed", mv.Executed)
		add("mover.coalesced", mv.Coalesced)
		add("mover.superseded", mv.Superseded)
		add("mover.cancelled", mv.Cancelled)
		add("mover.retried", mv.Retried)
		add("mover.failed", mv.Failed)
		aud := srv.Auditor().Counters()
		add("auditor.events", aud.Events)
		add("auditor.invalidations", aud.Invalidations)
		add("dhm.keys", aud.SegmentsSeen)
		posted, dropped := srv.Monitor().QueueStats()
		add("events.posted", posted)
		add("events.dropped", dropped)
		stalls, rescues := srv.StallStats()
		add("server.stalls", stalls)
		add("server.stall_rescues", rescues)
		add("server.zero_copy_bytes", srv.ZeroCopyBytes())
		remote, _ := srv.RemoteStats()
		add("server.remote_reads", remote)
		ioc := srv.IOClient().Stats()
		add("ioclient.fetches", ioc.Fetches)
		add("ioclient.bytes_moved", ioc.BytesMoved)
		if i == gatewayNode {
			st := srv.IOStats()
			add("cluster.node_remote", remote)
			add("cluster.node_reads", st.Hits()+st.Misses())
		}
		if cn := c.ClusterNode(i); cn != nil && cn.Fetcher() != nil {
			l.addHist("cluster.fetch", cn.Fetcher().FetchSnapshot())
		}
		for _, st := range srv.Hierarchy().Stores() {
			if seenStore[st] {
				continue
			}
			seenStore[st] = true
			usedNow[st.Name()] += float64(st.Used())
			_, _, busy := st.Device().Stats()
			l.busy[st.Name()] += float64(busy)
			l.window[st.Name()] += win * float64(max(1, st.Device().Profile().Channels))
		}
	}
	for name, u := range usedNow {
		l.used[name] = append(l.used[name], u)
	}
	pdev := c.FS().Device()
	ops, bytes, busy := pdev.Stats()
	add("pfs.ops", ops)
	add("pfs.bytes", bytes)
	l.busy["pfs"] += float64(busy)
	l.window["pfs"] += win * float64(max(1, pdev.Profile().Channels))

	slab := tiers.ReadSlabStats()
	add("tiers.slab_gets", slab.Gets-e.base.slab.Gets)
	add("tiers.slab_hits", slab.Hits-e.base.slab.Hits)
	add("tiers.copied", tiers.CopiedBytes()-e.base.copied)
	add("tiers.reads", e.reads.Load())

	snap, ok := c.TelemetrySnapshot()
	if !ok {
		return
	}
	for _, m := range snap.Metrics {
		switch {
		case m.Name == telemetry.StageHistName && m.Hist != nil:
			for _, stage := range []string{telemetry.StageQueueWait, telemetry.StageAudit,
				telemetry.StageDecide, telemetry.StageMoverQueue} {
				if strings.Contains(m.Labels, `"`+stage+`"`) {
					l.addHist("stage."+stage, *m.Hist)
				}
			}
		case m.Name == "hfetch_comm_request_nanos" && m.Hist != nil:
			l.addHist("comm.request", *m.Hist)
		case m.Name == "hfetch_gateway_request_nanos" && m.Hist != nil:
			l.addHist("gateway.handler", *m.Hist)
		case m.Name == "hfetch_comm_bytes_out_total":
			add("comm.bytes_out", m.Value)
		case m.Name == "hfetch_gateway_shed_total":
			add("gateway.shed", m.Value)
		case m.Name == "hfetch_gateway_aborted_total":
			add("gateway.aborted", m.Value)
		case m.Name == "hfetch_gateway_hints_total":
			add("gateway.hints", m.Value)
		case m.Name == "hfetch_prefetch_timely_total":
			add("mover.timely", m.Value)
		case m.Name == "hfetch_prefetch_late_total":
			add("mover.late", m.Value)
		case m.Name == "hfetch_prefetch_wasted_total":
			add("mover.wasted", m.Value)
		case m.Name == "hfetch_prefetch_redundant_total":
			add("mover.redundant", m.Value)
		case m.Name == "hfetch_cluster_fetches_total":
			if !strings.Contains(m.Labels, `"hit"`) && !strings.Contains(m.Labels, `"shared"`) {
				add("cluster.fallbacks", m.Value)
			}
		}
	}
}

// finish turns the sums into the per-layer metrics. acc is the traced
// rounds' end-to-end record (client-side latencies).
func (l *layerAcc) finish(acc *accum) map[string]float64 {
	out := map[string]float64{}
	for k, v := range l.sum {
		out[k] = v
	}
	q := func(name string, p float64) float64 {
		if h := l.hist[name]; h != nil {
			return us(float64(h.Quantile(p)))
		}
		return 0
	}
	out["agent.read_us_p50"] = us(acc.readNS.quantile(0.50))
	out["agent.read_us_p99"] = us(acc.readNS.quantile(0.99))
	out["agent.write_us_p50"] = us(acc.writeNS.quantile(0.50))
	out["loadgen.lag_p99_us"] = us(acc.lagNS.quantile(0.99))
	out["loadgen.retries"] = float64(acc.retries)
	out["verify.overlapped_reads"] = float64(acc.overlapped)

	out["tiers.bytes_copied_per_read"] = ratio(l.sum["tiers.copied"], l.sum["tiers.reads"])
	out["tiers.slab_hit_ratio"] = ratio(l.sum["tiers.slab_hits"], l.sum["tiers.slab_gets"])
	for _, t := range []string{"ram", "nvme", "bb"} {
		out["tiers."+t+".used_bytes"] = median(l.used[t])
		out["tiers."+t+".busy_ratio"] = ratio(l.busy[t], l.window[t])
	}
	out["pfs.busy_ratio"] = ratio(l.busy["pfs"], l.window["pfs"])
	out["events.queue_wait_us_p50"] = q("stage."+telemetry.StageQueueWait, 0.50)
	out["events.queue_wait_us_p99"] = q("stage."+telemetry.StageQueueWait, 0.99)
	out["auditor.audit_us_p50"] = q("stage."+telemetry.StageAudit, 0.50)
	out["auditor.audit_us_p99"] = q("stage."+telemetry.StageAudit, 0.99)
	out["placement.decide_us_p50"] = q("stage."+telemetry.StageDecide, 0.50)
	out["placement.decide_us_p99"] = q("stage."+telemetry.StageDecide, 0.99)
	out["mover.queue_us_p99"] = q("stage."+telemetry.StageMoverQueue, 0.99)
	classified := out["mover.timely"] + out["mover.late"] + out["mover.wasted"] + out["mover.redundant"]
	out["mover.useful_ratio"] = ratio(out["mover.timely"], classified)
	out["cluster.remote_read_share"] = ratio(l.sum["cluster.node_remote"], l.sum["cluster.node_reads"])
	out["cluster.fetch_us_p50"] = q("cluster.fetch", 0.50)
	out["cluster.fetch_us_p99"] = q("cluster.fetch", 0.99)
	if h := l.hist["comm.request"]; h != nil {
		out["comm.requests"] = float64(h.Count)
	}
	out["comm.request_us_p99"] = q("comm.request", 0.99)
	out["gateway.handler_us_p50"] = q("gateway.handler", 0.50)
	out["gateway.handler_us_p99"] = q("gateway.handler", 0.99)
	return out
}

// opsOverhead is traced over untraced ops_per_s, for closed loops.
func opsOverhead(untraced, traced *accum) float64 {
	return ratio(traced.opsPerSec(), untraced.opsPerSec())
}

// latencyOverhead is untraced over traced median read latency, for the
// open loop, whose throughput is the offered rate either way. Like
// opsOverhead, a value below 1 is the share tracing costs.
func latencyOverhead(untraced, traced *accum) float64 {
	return ratio(untraced.readNS.quantile(0.5), traced.readNS.quantile(0.5))
}
