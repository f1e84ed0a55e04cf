// Command perfbench is the repository benchmark: it boots HFetch clusters
// through the public hfetch API, drives one of three workloads for a fixed
// time, verifies every read against the PFS oracle, and prints one JSON
// result line.
//
//	perfbench --workload hotset --seed 3 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// telemetry off. With --trace 1 the run alternates untraced and traced
// rounds and reports the per-layer metrics of the traced rounds, plus the
// tracing overhead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"time"

	"hfetch"
)

// workload is one input set the benchmark can run.
type workload struct {
	name string
	// prepare builds the workload's inputs from the seed.
	prepare func(seed int64) (*plan, error)
	// overhead reports traced over untraced cost from the two
	// accumulators (the trace.overhead metric).
	overhead func(untraced, traced *accum) float64
}

// plan is a prepared workload.
type plan struct {
	// round boots a cluster, creates the files and warms up (all timed as
	// set-up), runs one fixed schedule, records into env and stops the
	// cluster.
	round func(env *roundEnv) error
	// cfg and readSize are the untraced configuration and the read size,
	// for the device model check.
	cfg      hfetch.Config
	readSize int64
	// extra adds per-layer metrics that need a measurement of their own
	// after a traced run's rounds (nil when none), counting its
	// operations into acc.
	extra func(out map[string]float64, acc *accum) error
}

var catalog = []workload{
	{name: "workflow", prepare: prepareWorkflow, overhead: opsOverhead},
	{name: "hotset", prepare: prepareHotset, overhead: opsOverhead},
	{name: "gateway", prepare: prepareGateway, overhead: latencyOverhead},
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minRounds is the fewest rounds a run makes, so every median is taken
// over at least three values even when a round outlasts --seconds.
const minRounds = 3

func main() {
	name := flag.String("workload", "", "workload to run: workflow, hotset or gateway")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	secs := flag.Int("seconds", 20, "how long to keep starting measured rounds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced rounds")
	flag.Parse()

	var wl *workload
	for i := range catalog {
		if catalog[i].name == *name {
			wl = &catalog[i]
		}
	}
	if wl == nil || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload workflow|hotset|gateway --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(wl, *seed, time.Duration(*secs)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes rounds for the given time and assembles the result.
func run(wl *workload, seed int64, budget time.Duration, traced bool) (result, error) {
	pl, err := wl.prepare(seed)
	if err != nil {
		return result{}, err
	}
	plain, withTrace := newAccum(), newAccum()
	var spans *spanLog
	var layers *layerAcc
	if traced {
		spans = newSpanLog()
		layers = newLayerAcc()
	}
	start := time.Now()
	for i := 0; ; i++ {
		// A traced run alternates untraced and traced rounds, so both
		// halves see the same machine conditions and trace.overhead
		// compares like with like.
		tr := traced && i%2 == 1
		need := minRounds
		if traced {
			need = 2 * minRounds
		}
		if i >= need && time.Since(start) >= budget {
			break
		}
		// Collect the previous round's cluster and hand its memory back
		// to the system first, so its garbage is neither timed as this
		// round's set-up nor counted in its peak RSS.
		debug.FreeOSMemory()
		env := &roundEnv{seed: seed, round: i, acc: plain}
		if tr {
			env.acc, env.traced, env.spans, env.layers = withTrace, true, spans, layers
		}
		stopRSS := sampleRSS()
		err := pl.round(env)
		peak := stopRSS()
		if err != nil {
			return result{}, fmt.Errorf("round %d: %w", i, err)
		}
		env.acc.peaks = append(env.acc.peaks, peak)
	}

	res := result{Metrics: map[string]metric{}}
	if !traced {
		plain.endToEnd(res.Metrics)
	} else {
		lay := layers.finish(withTrace)
		lay["trace.overhead"] = wl.overhead(plain, withTrace)
		if err := deviceOvershoot(pl.cfg, pl.readSize, lay); err != nil {
			return result{}, err
		}
		if pl.extra != nil {
			if err := pl.extra(lay, withTrace); err != nil {
				return result{}, err
			}
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: lay[m.name], Unit: m.unit}
		}
		if err := spans.write(wl.name, seed); err != nil {
			return result{}, err
		}
	}
	for _, a := range []*accum{plain, withTrace} {
		res.Attempted += a.attempted
		res.Failed += a.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	reportFailures(plain, withTrace)
	return res, nil
}

// reportFailures prints each failure kind to stderr.
func reportFailures(accs ...*accum) {
	kinds := map[string]int64{}
	for _, a := range accs {
		for k, n := range a.failures {
			kinds[k] += n
		}
	}
	keys := make([]string, 0, len(kinds))
	for k := range kinds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "perfbench: %d failed: %s\n", kinds[k], k)
	}
}
