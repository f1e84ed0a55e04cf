package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hfetch"
	"hfetch/internal/metrics"
	"hfetch/internal/workloads"
)

// The workflow workload: a Montage-shaped four-phase pipeline over a
// dataset twice the size of the hierarchy, run cold from boot.
const (
	wfImages     = 16
	wfImageBytes = 8 << 20
	wfReq        = 256 << 10
	wfProcs      = 2 // processes per phase
	wfSteps      = 8 // time steps across the four phases
	// wfStepThink is the compute time before each time step, wfReadThink
	// the compute time between reads.
	wfStepThink = 20 * time.Millisecond
	wfReadThink = 6 * time.Millisecond
	wfTimeScale = 1.0
)

func workflowConfig() hfetch.Config {
	cfg := daemonConfig()
	cfg.TimeScale = wfTimeScale
	setCapacities(&cfg, map[string]int64{"ram": 8 << 20, "nvme": 24 << 20, "bb": 32 << 20})
	return cfg
}

func prepareWorkflow(seed int64) (*plan, error) {
	mc := workloads.MontageConfig{
		Procs: wfProcs, ImageBytes: wfImageBytes, Images: wfImages,
		Req: wfReq, Steps: wfSteps, Think: wfStepThink,
	}
	// The seed renames the images through a permutation, so which image
	// each process and phase touches (and where its segments hash) is
	// the seed's choice; the pipeline's shape stays Montage's.
	perm := rand.New(rand.NewSource(seed)).Perm(wfImages)
	rename := make(map[string]string, wfImages)
	for i := 0; i < wfImages; i++ {
		rename[fmt.Sprintf("montage/fits-%d", i)] = fmt.Sprintf("montage/fits-%d", perm[i])
	}
	phases := workloads.Montage(mc)
	for _, app := range phases {
		for _, script := range app.Procs {
			for i := range script {
				script[i].File = rename[script[i].File]
				script[i].Think += wfReadThink
			}
		}
	}
	cfg := workflowConfig()
	printConfig("workflow", cfg, map[string]any{
		"dataset_bytes": wfImages * wfImageBytes, "hierarchy_bytes": 64 << 20,
		"images": wfImages, "image_bytes": wfImageBytes, "read_bytes": wfReq,
		"procs_per_phase": wfProcs, "phases": len(phases), "steps": wfSteps,
		"step_think": wfStepThink.String(), "read_think": wfReadThink.String(),
		"reads_per_round": len(flatten(phases)), "time_scale": wfTimeScale,
	})
	round := func(env *roundEnv) error { return workflowRound(env, cfg, phases) }
	return &plan{round: round, cfg: cfg, readSize: wfReq}, nil
}

func flatten(apps []workloads.App) []workloads.Access {
	var out []workloads.Access
	for _, a := range apps {
		for _, p := range a.Procs {
			out = append(out, p...)
		}
	}
	return out
}

// workflowRound boots a cold cluster and runs the four phases one after
// the other, each phase's processes concurrently in a closed loop.
func workflowRound(env *roundEnv, cfg hfetch.Config, phases []workloads.App) error {
	t0 := startSetup()
	c, err := env.boot(cfg)
	if err != nil {
		return err
	}
	defer c.Stop()
	for i := 0; i < wfImages; i++ {
		if err := c.CreateFile(fmt.Sprintf("montage/fits-%d", i), wfImageBytes); err != nil {
			return err
		}
	}
	node := c.Node(0)
	// One application's processes share an I/O stats collector, as the
	// paper's per-application accounting does; all phases share it here
	// so the round's hit bytes are one counter.
	stats := metrics.NewIOStats()
	setup := t0.elapsed()

	start := time.Now()
	var ops int64
	for pi, app := range phases {
		var wg sync.WaitGroup
		readers := make([]*agentReader, len(app.Procs))
		for p, script := range app.Procs {
			readers[p] = newAgentReader(env, c, node.NewClientWithStats(stats),
				env.seed*1000+int64(env.round*100+pi*10+p))
			ops += int64(len(script))
			wg.Add(1)
			go func(r *agentReader, script workloads.Script) {
				defer wg.Done()
				r.runScript(script)
			}(readers[p], script)
		}
		wg.Wait()
		for _, r := range readers {
			env.acc.merge(&r.rec)
		}
	}
	makespan := time.Since(start)

	hit, miss := stats.Bytes()
	_, origin, _ := c.FS().Device().Stats()
	env.collect(c, -1)
	env.acc.addRound(roundStats{
		setup: setup, makespan: makespan, ops: ops,
		schedRead: hit + miss, schedHit: hit, roundRead: hit + miss, origin: origin,
	})
	return nil
}

// runScript plays one process's accesses: handles open on first use and
// close at the end, compute time is slept before each read.
func (r *agentReader) runScript(script workloads.Script) {
	files := map[string]*hfetch.File{}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	var buf []byte
	for _, a := range script {
		if a.Think > 0 {
			time.Sleep(a.Think)
		}
		f := files[a.File]
		if f == nil {
			var err error
			if f, err = r.client.Open(a.File); err != nil {
				r.rec.attempted++
				r.rec.fail("open: " + err.Error())
				continue
			}
			files[a.File] = f
		}
		if int64(cap(buf)) < a.Len {
			buf = make([]byte, a.Len)
		}
		r.read(f, buf[:a.Len], a.Off, true)
	}
}
