//go:build linux

package devsim

import (
	"errors"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Wait bands. Go's timers cannot wake an otherwise idle process sooner
// than about 1 ms: with no runnable goroutine the netpoller blocks in
// epoll_wait, whose timeout has millisecond resolution. Measured on a
// 2-vCPU Linux/amd64 host with Go 1.24, time.Sleep(30µs) returned
// 1.03 ms late and time.Sleep(160µs) 0.90 ms late, so a modeled 33 µs
// RAM read and a 161 µs NVMe read both took ~1.15 ms. waitUntil
// therefore splits a wait by its length:
//
//   - below spinBelow: yield-spin. Parking on the waker and being woken
//     through the kernel costs ~10 µs, which would dominate waits this
//     short (and the sub-µs waits of runs at a small TimeScale).
//   - spinBelow to sleepAbove: park on the process-wide waker, armed
//     for the earliest pending deadline (see arm for its two timers).
//   - above sleepAbove: time.Sleep all but the last sleepAbove (its
//     ~1 ms overshoot fits inside that margin), then finish as above.
const (
	spinBelow  = 50 * time.Microsecond
	sleepAbove = 2 * time.Millisecond
)

// waitUntil blocks the calling goroutine until end. No band pins an OS
// thread: spinners yield the processor and parked waiters block on a
// channel.
func waitUntil(end time.Time) {
	wait := time.Until(end)
	if wait <= 0 {
		return
	}
	if wait > sleepAbove {
		time.Sleep(wait - sleepAbove)
		wait = time.Until(end)
	}
	if wait >= spinBelow {
		wk.wait(end)
	}
	for time.Now().Before(end) {
		runtime.Gosched()
	}
}

// waker is the process-wide precise timer. A waiter pushes its deadline
// on a min-heap and blocks on a pooled channel. One goroutine, started
// by the first wait and gone once the heap drains, parks in the
// netpoller reading a timerfd armed for the earliest deadline (with a
// read deadline at the same time), and each time the read returns
// releases every waiter whose deadline has passed. The timerfd is
// opened on the first wait and kept for the process's life: one
// descriptor in all, never one per waiter.
type waker struct {
	mu      sync.Mutex
	heap    []sleeper // min-heap on end
	running bool      // a run goroutine is live
	f       *os.File  // the timerfd, registered with the netpoller
	fd      uintptr   // f's descriptor (f.Fd would make f blocking)
	broken  bool      // timerfd unusable: waits fall back to time.Sleep
}

type sleeper struct {
	end time.Time
	ch  chan struct{}
}

var (
	wk        waker
	wakeChans = sync.Pool{New: func() any { return make(chan struct{}, 1) }}
)

// clockMonotonic is CLOCK_MONOTONIC, the clock behind Go's monotonic
// time readings.
const clockMonotonic = 1

type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

// wait blocks until the waker has seen end pass.
func (w *waker) wait(end time.Time) {
	ch := wakeChans.Get().(chan struct{})
	w.mu.Lock()
	if w.f == nil && !w.broken {
		w.open()
	}
	if w.broken {
		w.mu.Unlock()
		wakeChans.Put(ch)
		sleepUntil(end)
		return
	}
	w.push(sleeper{end: end, ch: ch})
	if !w.running {
		w.running = true
		go w.run()
	} else if w.heap[0].ch == ch && !w.arm(end) {
		// The new earliest deadline could not pull the timer in; the
		// armed one still fires, and run then releases everyone.
		w.broken = true
	}
	w.mu.Unlock()
	<-ch
	wakeChans.Put(ch)
}

// run is the waker goroutine. It exits as soon as no waiter is left.
func (w *waker) run() {
	var tick [8]byte
	for {
		w.mu.Lock()
		now := time.Now()
		// A broken waker releases everyone; waitUntil spins out the rest.
		for len(w.heap) > 0 && (w.broken || !w.heap[0].end.After(now)) {
			w.pop().ch <- struct{}{}
		}
		if len(w.heap) == 0 {
			w.running = false
			w.mu.Unlock()
			return
		}
		if !w.arm(w.heap[0].end) {
			w.broken = true
			w.mu.Unlock()
			continue
		}
		w.mu.Unlock()
		// Arming clears any stale expiration, so this read returns when
		// the earliest deadline (or an earlier one armed since) passes:
		// through the timerfd when the process is idle, through the read
		// deadline when it is busy.
		if _, err := w.f.Read(tick[:]); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			w.mu.Lock()
			w.broken = true
			w.mu.Unlock()
		}
	}
}

// open creates the timerfd; the caller holds w.mu.
func (w *waker) open() {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		w.broken = true
		return
	}
	w.fd = fd
	w.f = os.NewFile(fd, "devsim-timerfd")
	// A descriptor the netpoller cannot watch takes no deadline; reading
	// it would block an OS thread, so fall back to time.Sleep instead.
	if err := w.f.SetReadDeadline(time.Time{}); err != nil {
		w.f.Close()
		w.f = nil
		w.broken = true
	}
}

// arm makes the waker's read return at end; the caller holds w.mu, so
// the armed deadline and the heap never disagree. It arms two timers
// because neither is precise alone. The timerfd wakes an idle process
// on time, where a Go timer oversleeps by ~1 ms. But the netpoller only
// sees the timerfd when a processor runs out of work (or every 10 ms,
// from sysmon), so in a process whose processors stay busy it fires
// late, while the read deadline, a Go timer checked at every
// scheduling point, fires on time.
func (w *waker) arm(end time.Time) bool {
	d := time.Until(end)
	if d <= 0 {
		d = 1 // a zero it_value would disarm the timer
	}
	its := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	_, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0,
		uintptr(unsafe.Pointer(&its)), 0, 0, 0)
	return errno == 0 && w.f.SetReadDeadline(end) == nil
}

func (w *waker) push(s sleeper) {
	h := append(w.heap, s)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].end.Before(h[p].end) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	w.heap = h
}

func (w *waker) pop() sleeper {
	h := w.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = sleeper{}
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].end.Before(h[m].end) {
			m = r
		}
		if !h[m].end.Before(h[i].end) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	w.heap = h
	return top
}
