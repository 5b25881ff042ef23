package main

import (
	"math"
	"sort"
	"time"
)

// sample is one latency observation and when it completed, relative to
// the start of its timed phase.
type sample struct {
	at time.Duration
	ms float64
}

// slotSamples is the least number of samples a latency quantile is
// taken over: p99 keeps ten samples beyond it.
const slotSamples = 1000

// slotQuantile cuts time-ordered samples into consecutive slots of at
// least slotSamples (one slot when there are fewer), takes the
// q-quantile within each slot and returns the median over slots.
func slotQuantile(s []sample, q float64) float64 {
	k := max(1, len(s)/slotSamples)
	per := make([]float64, k)
	for j := range per {
		lo, hi := j*len(s)/k, (j+1)*len(s)/k
		vals := make([]float64, 0, hi-lo)
		for _, x := range s[lo:hi] {
			vals = append(vals, x.ms)
		}
		per[j] = quantile(vals, q)
	}
	return median(per)
}

// values strips the completion times.
func values(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.ms
	}
	return out
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the two closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly above v: the support of a tail
// percentile.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}
