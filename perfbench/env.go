package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hfetch"
	"hfetch/internal/pfs"
	"hfetch/internal/tiers"
)

// roundEnv is what a round records into.
type roundEnv struct {
	seed   int64
	round  int
	traced bool
	acc    *accum
	spans  *spanLog   // nil in untraced rounds
	layers *layerAcc  // nil in untraced rounds
	base   layerStart // process-wide counters at boot
	reads  atomic.Int64
}

// boot starts a cluster and snapshots the process-wide counters the
// per-layer metrics are deltas of. Traced rounds turn on telemetry and
// the lifecycle ledger; untraced rounds, which give the end-to-end
// metrics, run with the registry off.
func (e *roundEnv) boot(cfg hfetch.Config) (*hfetch.Cluster, error) {
	e.base = layerStart{at: time.Now(), slab: tiers.ReadSlabStats(), copied: tiers.CopiedBytes()}
	cfg.EnableTelemetry = e.traced
	cfg.EnableLifecycle = e.traced
	c, err := hfetch.NewCluster(cfg)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	return c, nil
}

// accum gathers the end-to-end measurements of a run's rounds.
type accum struct {
	mu        sync.Mutex
	setups    []float64
	makespans []float64
	peaks     []float64 // peak resident set per round, MiB
	rates     []float64 // completed reads per second, per round
	readNS    *reservoir
	writeNS   *reservoir
	lagNS     *reservoir
	// Bytes of the measured schedules, for hit_ratio.
	schedRead, schedHit int64
	// Bytes over whole rounds, warm-up included, for
	// origin_bytes_per_read_byte.
	roundRead, roundOrigin int64
	attempted, failed      int64
	failures               map[string]int64
	retries                int64
	overlapped             int64
}

func newAccum() *accum {
	return &accum{readNS: newReservoir(), writeNS: newReservoir(), lagNS: newReservoir(), failures: map[string]int64{}}
}

// roundStats is one round's totals.
type roundStats struct {
	setup, makespan     time.Duration
	ops                 int64
	schedRead, schedHit int64
	roundRead, origin   int64
}

func (a *accum) addRound(r roundStats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.setups = append(a.setups, r.setup.Seconds())
	a.makespans = append(a.makespans, r.makespan.Seconds())
	a.rates = append(a.rates, ratio(float64(r.ops), r.makespan.Seconds()))
	a.schedRead += r.schedRead
	a.schedHit += r.schedHit
	a.roundRead += r.roundRead
	a.roundOrigin += r.origin
}

// clientRec is one client goroutine's private record, merged into the
// accum when the client finishes.
type clientRec struct {
	readNS, writeNS, lagNS []int64
	attempted, failed      int64
	retries, overlapped    int64
	failures               map[string]int64
}

func (c *clientRec) fail(kind string) {
	c.failed++
	if c.failures == nil {
		c.failures = map[string]int64{}
	}
	c.failures[kind]++
}

func (a *accum) merge(c *clientRec) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.readNS.add(c.readNS...)
	a.writeNS.add(c.writeNS...)
	a.lagNS.add(c.lagNS...)
	a.attempted += c.attempted
	a.failed += c.failed
	a.retries += c.retries
	a.overlapped += c.overlapped
	for k, n := range c.failures {
		a.failures[k] += n
	}
}

// opsPerSec is the median over rounds of completed reads per second.
func (a *accum) opsPerSec() float64 { return median(a.rates) }

// endToEnd writes the end-to-end metrics.
func (a *accum) endToEnd(m map[string]metric) {
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds, %d read latency samples (read p99 %.1f us), %d overlapped a write\n",
		len(a.makespans), a.readNS.seen, us(a.readNS.quantile(0.99)), a.overlapped)
	fmt.Fprintf(os.Stderr, "perfbench: set-up s %.4g\nperfbench: makespan s %.4g\nperfbench: peak rss MiB %.4g\n",
		a.setups, a.makespans, a.peaks)
	m["setup_s"] = metric{median(a.setups), "s"}
	m["makespan_s"] = metric{median(a.makespans), "s"}
	m["ops_per_s"] = metric{a.opsPerSec(), "1/s"}
	m["read_p50_us"] = metric{us(a.readNS.quantile(0.50)), "us"}
	m["read_p90_us"] = metric{us(a.readNS.quantile(0.90)), "us"}
	m["hit_ratio"] = metric{ratio(float64(a.schedHit), float64(a.schedRead)), "ratio"}
	m["origin_bytes_per_read_byte"] = metric{ratio(float64(a.roundOrigin), float64(a.roundRead)), "ratio"}
	m["peak_rss_mb"] = metric{median(a.peaks), "MB"}
}

// rssEvery is how often a round samples the resident set.
const rssEvery = 5 * time.Millisecond

// sampleRSS samples the process's resident set every rssEvery until the
// returned stop is called, which returns the highest value seen in MiB.
// A round's peak is taken this way, rather than from the process-wide
// high-water mark (VmHWM), so the metric can be a median over rounds:
// the peak depends on where garbage collection falls, and the maximum
// over a whole run reads the worst round.
func sampleRSS() (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		hi := rssMB()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				peak <- max(hi, rssMB())
				return
			case <-t.C:
				hi = max(hi, rssMB())
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// rssMB reads the process's resident set (VmRSS) in MiB; 0 when it
// cannot be read.
func rssMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// ---- read verification ----

// probeSamples is how many bytes of each read are checked: the first,
// the last, and the rest at seeded positions in between.
const probeSamples = 6

// probe holds the expected bytes of one file generation at a read's
// sample offsets.
type probe struct {
	ver  int64
	offs [probeSamples]int64
	vals [probeSamples]byte
}

// place chooses the sample offsets inside [off, off+n).
func (p *probe) place(rng *rand.Rand, off, n int64) {
	p.offs[0], p.offs[1] = off, off+n-1
	for i := 2; i < probeSamples; i++ {
		p.offs[i] = off + rng.Int63n(n)
	}
}

// expect fills the probe from the PFS oracle. The generation is read
// before and after, so the values belong to one generation.
func (p *probe) expect(fs *pfs.FS, name string) error {
	for try := 0; try < 8; try++ {
		before, err := fs.Stat(name)
		if err != nil {
			return err
		}
		for i, o := range p.offs {
			if p.vals[i], err = fs.ExpectedAt(name, o); err != nil {
				return err
			}
		}
		after, err := fs.Stat(name)
		if err != nil {
			return err
		}
		if after.Version == before.Version {
			p.ver = before.Version
			return nil
		}
	}
	return fmt.Errorf("%s kept changing while sampling", name)
}

// matches reports whether buf, holding the bytes at file offset off,
// agrees with the probe.
func (p *probe) matches(buf []byte, off int64) bool {
	for i, o := range p.offs {
		if buf[o-off] != p.vals[i] {
			return false
		}
	}
	return true
}

// agentReader is one closed-loop client: an hfetch agent plus its
// private record.
type agentReader struct {
	env    *roundEnv
	fs     *pfs.FS
	client *hfetch.Client
	rng    *rand.Rand
	rec    clientRec
	pr     probe
}

func newAgentReader(env *roundEnv, c *hfetch.Cluster, client *hfetch.Client, seed int64) *agentReader {
	return &agentReader{env: env, fs: c.FS(), client: client, rng: rand.New(rand.NewSource(seed))}
}

// read issues one File.ReadAt and verifies it. Reads of the measured
// schedule record their latency; warm-up reads are verified only.
func (r *agentReader) read(f *hfetch.File, buf []byte, off int64, measured bool) {
	r.rec.attempted++
	r.env.reads.Add(1)
	op := r.env.spans.op()
	start := time.Now()
	n, err := f.ReadAt(buf, off)
	d := time.Since(start)
	r.env.spans.add(op, "agent.read", start, d)
	if measured {
		r.rec.readNS = append(r.rec.readNS, int64(d))
	}
	if err != nil {
		r.rec.fail("read error: " + err.Error())
		return
	}
	if n != len(buf) {
		r.rec.fail("short read")
		return
	}
	vstart := time.Now()
	r.pr.place(r.rng, off, int64(n))
	if err := r.pr.expect(r.fs, f.Name()); err != nil {
		r.rec.fail("oracle: " + err.Error())
		return
	}
	// Nothing writes the files agents read, so the generation sampled
	// after the call is the only one the bytes may belong to.
	if !r.pr.matches(buf[:n], off) {
		r.rec.fail("wrong bytes")
	}
	r.env.spans.add(op, "verify", vstart, time.Since(vstart))
}

// ---- time on a shared virtual machine ----

// setupClock measures set-up as the CPU time the process spends on it,
// summed over threads. Set-up on workflow lasts a few milliseconds, and
// on a virtual machine whose vCPUs the host preempts, wall time over
// such a window mostly measures whether a preemption landed in it. CPU
// time does not count the stolen time, and still grows with any work
// moved into set-up.
type setupClock struct{ cpu time.Duration }

func startSetup() setupClock { return setupClock{processCPU()} }

func (c setupClock) elapsed() time.Duration { return processCPU() - c.cpu }

// processCPU is the user plus system CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealClock measures the share of CPU time the hypervisor stole from
// the machine's vCPUs over a window, from /proc/stat.
type stealClock struct{ total, steal int64 }

func startSteal() stealClock {
	t, s := cpuTicks()
	return stealClock{t, s}
}

// unstolen scales a wall-clock duration that ended now by the share of
// CPU time the vCPUs were not stolen since the clock started. It is
// meant for windows in which every vCPU stays busy.
func (c stealClock) unstolen(wall time.Duration) time.Duration {
	t, s := cpuTicks()
	if t <= c.total {
		return wall
	}
	share := float64(s-c.steal) / float64(t-c.total)
	return time.Duration(float64(wall) * (1 - share))
}

// cpuTicks reads the machine-wide tick counters from /proc/stat: all
// ticks, and the ticks stolen from this machine's vCPUs. Both are 0
// when the file cannot be read.
func cpuTicks() (total, steal int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
