//go:build race

package devsim

// raceEnabled reports a -race build, whose instrumentation slows each
// goroutine wake-up enough to move wall-clock bounds.
const raceEnabled = true
