package main

import (
	"math"
	"math/rand"
	"sort"
)

// median returns the middle value of vs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantileNS returns the q-quantile of latency samples in nanoseconds
// (nearest rank on the sorted samples); 0 when there are none.
func quantileNS(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	idx = max(0, min(idx, len(s)-1))
	return float64(s[idx])
}

// us converts nanoseconds to microseconds.
func us(ns float64) float64 { return ns / 1e3 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// reservoirCap bounds the latency samples a run keeps.
const reservoirCap = 200_000

// reservoir keeps a uniform sample of at most reservoirCap values
// (Algorithm R), so a run's memory, and with it peak_rss_mb, does not
// grow with the number of rounds.
type reservoir struct {
	seen int64
	vals []int64
	rng  *rand.Rand
}

func newReservoir() *reservoir { return &reservoir{rng: rand.New(rand.NewSource(1))} }

func (r *reservoir) add(vs ...int64) {
	for _, v := range vs {
		r.seen++
		if len(r.vals) < reservoirCap {
			r.vals = append(r.vals, v)
		} else if i := r.rng.Int63n(r.seen); i < reservoirCap {
			r.vals[i] = v
		}
	}
}

// quantile returns the q-quantile of the kept samples in nanoseconds.
func (r *reservoir) quantile(q float64) float64 { return quantileNS(r.vals, q) }
