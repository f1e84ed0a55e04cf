package devsim

import (
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// A sub-millisecond device costs its modeled time, not the Go timer's
// ~1 ms floor: serial 100 µs accesses on an otherwise idle process
// overshoot by well under the ~900 µs time.Sleep shows.
func TestPreciseWaitSerialOvershoot(t *testing.T) {
	const cost = 100 * time.Microsecond
	d := New(Profile{Name: "x", Latency: cost}, 1)
	over := make([]time.Duration, 200)
	for i := range over {
		start := time.Now()
		d.Access(0)
		over[i] = time.Since(start) - cost
	}
	m := medianDuration(over)
	t.Logf("median overshoot %v", m)
	if m >= 300*time.Microsecond {
		t.Fatalf("median overshoot of %v accesses = %v, want < 300µs", cost, m)
	}
	for _, o := range over {
		if o < 0 {
			t.Fatalf("an access returned %v before its modeled completion", -o)
		}
	}
}

// Each band (spin, waker, sleep then waker) returns at or after its
// deadline.
func TestWaitUntilNeverEarly(t *testing.T) {
	for _, w := range []time.Duration{0, time.Microsecond, 30 * time.Microsecond,
		spinBelow, 200 * time.Microsecond, sleepAbove, 3 * time.Millisecond} {
		end := time.Now().Add(w)
		waitUntil(end)
		if now := time.Now(); now.Before(end) {
			t.Fatalf("wait of %v returned %v early", w, end.Sub(now))
		}
	}
}

// Many concurrent sub-millisecond waiters share the one waker: all
// finish near their modeled time and none holds an OS thread.
func TestPreciseWaitConcurrentNoThreadPerWaiter(t *testing.T) {
	const (
		waiters = 256
		cost    = 400 * time.Microsecond
	)
	// One device each: the waits, not one device's channel queue, are
	// under test.
	devs := make([]*Device, waiters)
	for i := range devs {
		devs[i] = New(Profile{Name: "x", Latency: cost}, 1)
	}
	threads := pprof.Lookup("threadcreate")
	before := threads.Count()
	over := make([]time.Duration, waiters)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			t0 := time.Now()
			devs[i].Access(0)
			over[i] = time.Since(t0) - cost
		}(i)
	}
	close(start)
	wg.Wait()
	// An idle 2-vCPU host shows a median of 30-250 µs. The bound leaves
	// room for a loaded test host (other packages' tests run alongside)
	// and for -race, whose instrumentation makes waking 256 goroutines
	// on two CPUs take a few ms; the thread count is the sharp check.
	bound := 5 * time.Millisecond
	if raceEnabled {
		bound = 20 * time.Millisecond
	}
	m := medianDuration(over)
	t.Logf("median overshoot %v, threads +%d", m, threads.Count()-before)
	if m >= bound {
		t.Fatalf("median overshoot of %d concurrent %v accesses = %v, want < %v", waiters, cost, m, bound)
	}
	if grew := threads.Count() - before; grew > 4 {
		t.Fatalf("%d concurrent waits created %d OS threads, want at most a few", waiters, grew)
	}
}

// A process whose processors never run out of work polls the netpoller
// only every 10 ms (from sysmon), so a timerfd alone would wake its
// waiters ~10 ms late; the waker's read deadline, a Go timer, keeps
// the wait precise there too.
func TestPreciseWaitBusyProcess(t *testing.T) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 2*runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for x := 0; !stop.Load(); x++ {
				if x%1000 == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	defer wg.Wait()
	defer stop.Store(true)
	const cost = 200 * time.Microsecond
	d := New(Profile{Name: "x", Latency: cost}, 1)
	over := make([]time.Duration, 100)
	for i := range over {
		start := time.Now()
		d.Access(0)
		over[i] = time.Since(start) - cost
	}
	m := medianDuration(over)
	t.Logf("median overshoot %v", m)
	if m >= time.Millisecond {
		t.Fatalf("busy process: median overshoot of %v accesses = %v, want < 1ms", cost, m)
	}
}

func TestWakerHeapOrder(t *testing.T) {
	var w waker
	base := time.Now()
	for _, off := range []int{5, 1, 9, 3, 7, 2, 8, 0, 6, 4} {
		w.push(sleeper{end: base.Add(time.Duration(off))})
	}
	for want := 0; want < 10; want++ {
		if got := w.pop().end.Sub(base); got != time.Duration(want) {
			t.Fatalf("pop %d = %v, want %v", want, got, time.Duration(want))
		}
	}
	if len(w.heap) != 0 {
		t.Fatalf("heap holds %d after draining", len(w.heap))
	}
}
