// Package devsim models the performance of storage and memory devices.
//
// The repository reproduces experiments that were originally run on real
// hardware (RAM, node-local NVMe, shared burst buffers, and a remote
// parallel file system). devsim substitutes those devices with performance
// models: every operation against a Device is charged a service time
// derived from the device's latency and bandwidth, and concurrent
// operations contend for the device's channels exactly as they would on
// real hardware.
//
// The model is a virtual-clock queue anchored to wall time. Each device
// channel keeps a "next free" timestamp; an operation picks the channel
// that frees up earliest, computes its completion time as
//
//	start = max(now, channelFree)
//	end   = start + latency + size/bandwidth
//
// and then waits until end. Because the channel's free time advances by
// the full service time, queueing backlogs accumulate correctly: many
// cheap operations issued at once serialize into real elapsed time, just
// like on a saturated device.
//
// The wait is precise to a few microseconds, not to the Go timer's ~1 ms
// floor: on Linux short waits yield-spin, sub-2 ms waits park on one
// process-wide waker (a timerfd for an idle process, a read deadline
// for a busy one), and longer ones sleep most of the way first
// (wait_linux.go). Other platforms use time.Sleep, whose overshoot
// makes sub-millisecond devices cost about a millisecond.
package devsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Profile describes the raw performance characteristics of a device.
type Profile struct {
	// Name identifies the device in metrics and logs.
	Name string
	// Latency is the fixed per-operation service time.
	Latency time.Duration
	// BytesPerSec is the sustained bandwidth of one channel.
	BytesPerSec float64
	// Channels is the number of independent service channels
	// (e.g. NVMe queue pairs, PFS storage servers). Zero means one.
	Channels int
}

// Device is a shared, concurrency-safe performance model instance.
type Device struct {
	prof  Profile
	scale float64

	mu   sync.Mutex
	free []time.Time // next-free wall-clock time per channel

	ops       atomic.Int64
	bytes     atomic.Int64
	busyNanos atomic.Int64
}

// New creates a Device from a profile. The scale factor multiplies all
// modeled service times; scale < 1 speeds experiments up proportionally
// on every device so relative results are preserved.
func New(prof Profile, scale float64) *Device {
	if prof.Channels <= 0 {
		prof.Channels = 1
	}
	if scale <= 0 {
		scale = 1
	}
	return &Device{
		prof:  prof,
		scale: scale,
		free:  make([]time.Time, prof.Channels),
	}
}

// Name returns the device name.
func (d *Device) Name() string { return d.prof.Name }

// Profile returns the device's performance profile.
func (d *Device) Profile() Profile { return d.prof }

// Cost returns the modeled service time of a single operation moving
// size bytes, after scaling. It does not account for queueing.
func (d *Device) Cost(size int64) time.Duration {
	c := float64(d.prof.Latency)
	if d.prof.BytesPerSec > 0 && size > 0 {
		c += float64(size) / d.prof.BytesPerSec * float64(time.Second)
	}
	return time.Duration(c * d.scale)
}

// Access charges one operation of size bytes against the device and
// blocks until its modeled completion time. It returns the service time
// (excluding queueing delay) that was charged.
func (d *Device) Access(size int64) time.Duration {
	cost := d.Cost(size)
	now := time.Now()

	d.mu.Lock()
	// Pick the channel that frees up earliest.
	best := 0
	for i := 1; i < len(d.free); i++ {
		if d.free[i].Before(d.free[best]) {
			best = i
		}
	}
	start := d.free[best]
	if start.Before(now) {
		start = now
	}
	end := start.Add(cost)
	d.free[best] = end
	d.mu.Unlock()

	d.ops.Add(1)
	d.bytes.Add(size)
	d.busyNanos.Add(int64(cost))

	waitFor(end)
	return cost
}

// Stats reports cumulative operation count, bytes moved and modeled busy
// time since the device was created.
func (d *Device) Stats() (ops, bytes int64, busy time.Duration) {
	return d.ops.Load(), d.bytes.Load(), time.Duration(d.busyNanos.Load())
}

// ResetStats zeroes the cumulative counters.
func (d *Device) ResetStats() {
	d.ops.Store(0)
	d.bytes.Store(0)
	d.busyNanos.Store(0)
}

func (d *Device) String() string {
	return fmt.Sprintf("devsim.Device(%s lat=%v bw=%.0fMB/s ch=%d)",
		d.prof.Name, d.prof.Latency, d.prof.BytesPerSec/1e6, d.prof.Channels)
}
