//go:build !linux

package devsim

import "time"

// waitUntil blocks until end. Without timerfd the portable time.Sleep
// is the only wait, with its timer-resolution overshoot.
func waitUntil(end time.Time) { sleepUntil(end) }
