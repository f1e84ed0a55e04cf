package devsim

import "time"

// waitFor is how Access blocks until an operation's modeled completion
// time: the platform's waitUntil. Tests swap in sleepUntil to run the
// queueing model over the portable fallback.
var waitFor = waitUntil

// sleepUntil is the portable wait: one time.Sleep. It is exact for
// waits well above the Go timer's resolution, but an otherwise idle
// process oversleeps a sub-millisecond request by up to ~1 ms (see
// wait_linux.go), so on platforms without the precise waiter a fast
// device's wall time measures the timer rather than the model.
func sleepUntil(end time.Time) {
	if wait := time.Until(end); wait > 0 {
		time.Sleep(wait)
	}
}
