package main

import (
	"encoding/json"
	"fmt"
	"time"

	"hfetch"
	"hfetch/internal/config"
	"hfetch/internal/devsim"
)

// daemonConfig maps the daemon's defaults (internal/config.Default) onto
// the library configuration: the sharded event pipeline, the async
// mover, fetch coalescing, the bounded fetch wait and stream detection
// hfetchd deploys. Workloads change only shape values on top of it.
func daemonConfig() hfetch.Config {
	d := config.Default()
	usec := func(v float64) time.Duration { return time.Duration(v * float64(time.Microsecond)) }
	tiers := make([]hfetch.TierSpec, len(d.Tiers))
	for i, t := range d.Tiers {
		tiers[i] = hfetch.TierSpec{
			Name: t.Name, Capacity: t.CapacityBytes, Latency: usec(t.LatencyUS),
			Bandwidth: t.BandwidthMBps * 1e6, Channels: t.Channels, Shared: t.Shared,
		}
	}
	return hfetch.Config{
		Nodes:                 1,
		SegmentSize:           d.SegmentSize,
		DecayBase:             d.DecayBase,
		DecayUnit:             d.DecayUnit(),
		SeqBoost:              d.SeqBoost,
		DaemonThreads:         d.Daemons,
		EventShards:           d.EventShards,
		WorkersPerShard:       d.WorkersPerShard,
		DropEvents:            d.DropEvents(),
		EngineThreads:         d.EngineWorkers,
		EngineInterval:        d.EngineInterval(),
		EngineUpdateThreshold: d.EngineUpdateThreshold,
		AsyncMover:            d.AsyncMover,
		MoverConcurrency:      d.MoverConcurrency,
		MoverQueueDepth:       d.MoverQueueDepth,
		FetchCoalesce:         d.FetchCoalesce,
		FetchWait:             d.FetchWait(),
		TimeScale:             d.TimeScale,
		SpanLogSize:           d.SpanLogSize,
		SpanSampleEvery:       d.SpanSampleEvery,
		TimeSampleEvery:       d.TimeSampleEvery,
		LifecycleRing:         d.LifecycleRing,
		LifecycleSampleEvery:  d.LifecycleSampleEvery,
		LifecycleMaxActive:    d.LifecycleMaxActive,
		Gateway: hfetch.GatewaySpec{
			MaxInflight:     d.GatewayMaxInflight,
			ClientInflight:  d.GatewayClientInflight,
			TenantRPS:       d.TenantRPS,
			TenantBurst:     d.TenantBurst,
			AdmitWait:       d.GatewayWait(),
			StreamDetect:    d.StreamDetect,
			StreamWindow:    d.StreamDetectWindow,
			StreamLookahead: d.StreamLookahead,
		},
		Tiers: tiers,
		PFS: hfetch.PFSSpec{
			Latency: usec(d.PFS.LatencyUS), Bandwidth: d.PFS.BandwidthMBps * 1e6, Servers: d.PFS.Servers,
		},
	}
}

// setCapacities overrides tier capacities by name; a tier given no
// capacity is dropped.
func setCapacities(cfg *hfetch.Config, caps map[string]int64) {
	var out []hfetch.TierSpec
	for _, t := range cfg.Tiers {
		if c, ok := caps[t.Name]; ok {
			t.Capacity = c
			out = append(out, t)
		}
	}
	cfg.Tiers = out
}

// printConfig writes the configuration a workload runs with to stdout,
// ahead of the result line, so every result records what it measured.
func printConfig(workload string, cfg hfetch.Config, shape map[string]any) {
	raw, err := json.Marshal(struct {
		Workload string         `json:"workload"`
		Shape    map[string]any `json:"shape"`
		Config   hfetch.Config  `json:"config"`
	}{workload, shape, cfg})
	if err != nil {
		raw = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("config %s\n", raw)
}

// deviceOvershoot times Device.Access on an idle cluster built from cfg
// and returns, per device, median measured over modeled service time at
// request size size. Values far above 1 mean the modeled time is below
// what the Go timer can sleep, so latencies of that device measure the
// timer rather than the model.
func deviceOvershoot(cfg hfetch.Config, size int64, out map[string]float64) error {
	c, err := hfetch.NewCluster(cfg)
	if err != nil {
		return fmt.Errorf("overshoot cluster: %w", err)
	}
	defer c.Stop()
	const calls = 64
	devs := []*devsim.Device{c.FS().Device()}
	for _, st := range c.Node(0).Server().Hierarchy().Stores() {
		devs = append(devs, st.Device())
	}
	for _, d := range devs {
		modeled := float64(d.Cost(size))
		if modeled <= 0 {
			continue
		}
		took := make([]float64, calls)
		for i := range took {
			start := time.Now()
			d.Access(size)
			took[i] = float64(time.Since(start))
		}
		out["devsim."+d.Name()+".overshoot"] = median(took) / modeled
	}
	return nil
}
