package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hfetch"
	"hfetch/internal/metrics"
)

// The hotset workload: a working set half the RAM tier, read by two
// closed-loop clients with Zipf-chosen 64 KiB reads and no think time.
// Device time is compressed, so the software read path does the work.
const (
	hsFiles     = 32
	hsFileBytes = 1 << 20
	hsReq       = 64 << 10
	hsClients   = 2
	// hsReadsPerClient is each client's share of a round's fixed schedule.
	hsReadsPerClient = 60_000
	hsZipfS          = 1.1
	hsTimeScale      = 1e-3
	// hsWarmPasses bounds the warm-up: full passes over the working set,
	// each followed by a placement flush, until a pass hits every read.
	hsWarmPasses = 6
)

func hotsetConfig() hfetch.Config {
	cfg := daemonConfig() // RAM 64 MiB: the working set is half of it
	cfg.TimeScale = hsTimeScale
	return cfg
}

// hsRead is one scheduled read.
type hsRead struct {
	file int
	off  int64
}

func prepareHotset(seed int64) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	// The seed also permutes which file is hottest.
	rank := rng.Perm(hsFiles)
	zipf := rand.NewZipf(rng, hsZipfS, 1, hsFiles-1)
	chunks := int64(hsFileBytes / hsReq)
	sched := make([][]hsRead, hsClients)
	for c := range sched {
		sched[c] = make([]hsRead, hsReadsPerClient)
		for i := range sched[c] {
			sched[c][i] = hsRead{file: rank[zipf.Uint64()], off: rng.Int63n(chunks) * hsReq}
		}
	}
	cfg := hotsetConfig()
	printConfig("hotset", cfg, map[string]any{
		"files": hsFiles, "file_bytes": hsFileBytes, "working_set_bytes": hsFiles * hsFileBytes,
		"ram_bytes": cfg.Tiers[0].Capacity, "read_bytes": hsReq, "clients": hsClients,
		"reads_per_round": hsClients * hsReadsPerClient, "zipf_s": hsZipfS, "time_scale": hsTimeScale,
	})
	round := func(env *roundEnv) error { return hotsetRound(env, cfg, sched) }
	return &plan{round: round, cfg: cfg, readSize: hsReq}, nil
}

func hsName(i int) string { return fmt.Sprintf("hot/file-%02d", i) }

// hotsetRound boots, warms the working set into the tiers, then runs
// the clients' fixed schedules concurrently.
func hotsetRound(env *roundEnv, cfg hfetch.Config, sched [][]hsRead) error {
	t0 := startSetup()
	c, err := env.boot(cfg)
	if err != nil {
		return err
	}
	defer c.Stop()
	for i := 0; i < hsFiles; i++ {
		if err := c.CreateFile(hsName(i), hsFileBytes); err != nil {
			return err
		}
	}
	node := c.Node(0)
	stats := metrics.NewIOStats()
	readers := make([]*agentReader, hsClients)
	files := make([][]*hfetch.File, hsClients)
	for r := range readers {
		readers[r] = newAgentReader(env, c, node.NewClientWithStats(stats), env.seed*1000+int64(env.round*10+r))
		for i := 0; i < hsFiles; i++ {
			f, err := readers[r].client.Open(hsName(i))
			if err != nil {
				return err
			}
			defer f.Close()
			files[r] = append(files[r], f)
		}
	}

	buf := make([]byte, hsReq)
	for pass := 0; pass < hsWarmPasses; pass++ {
		h0, m0 := stats.Bytes()
		for i := 0; i < hsFiles; i++ {
			for off := int64(0); off < hsFileBytes; off += hsReq {
				readers[0].read(files[0][i], buf, off, false)
			}
		}
		h1, m1 := stats.Bytes()
		if m1 == m0 && h1 > h0 {
			break
		}
		node.Flush()
	}
	env.acc.merge(&readers[0].rec)
	readers[0].rec = clientRec{}
	warmHit, warmMiss := stats.Bytes()
	setup := t0.elapsed()

	stolen := startSteal()
	start := time.Now()
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func(rd *agentReader, fs []*hfetch.File, plan []hsRead) {
			defer wg.Done()
			buf := make([]byte, hsReq)
			for _, x := range plan {
				rd.read(fs[x.file], buf, x.off, true)
			}
		}(readers[r], files[r], sched[r])
	}
	wg.Wait()
	// The clients never sleep, so the schedule's progress follows the
	// CPU the virtual machine was given: time the hypervisor stole from
	// the vCPUs is taken out, or a noisy neighbour reads as a regression.
	makespan := stolen.unstolen(time.Since(start))
	for _, rd := range readers {
		env.acc.merge(&rd.rec)
	}

	hit, miss := stats.Bytes()
	_, origin, _ := c.FS().Device().Stats()
	env.collect(c, -1)
	env.acc.addRound(roundStats{
		setup: setup, makespan: makespan, ops: hsClients * hsReadsPerClient,
		schedRead: hit + miss - warmHit - warmMiss, schedHit: hit - warmHit,
		roundRead: hit + miss, origin: origin,
	})
	return nil
}
