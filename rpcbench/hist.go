package main

import (
	"math/bits"
	"time"
)

// hist is a log-linear histogram of non-negative nanosecond durations:
// values below 256 ns get a bucket each, larger ones 256 buckets per
// power of two (at most 0.4% relative width). Storage is fixed, so
// recording never allocates; quantiles interpolate within a bucket.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 8
	histSub     = 1 << histSubBits
	histMaxExp  = 40 // values are clamped below 2^40 ns (about 18 minutes)
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	if v >= 1<<histMaxExp {
		v = 1<<histMaxExp - 1
	}
	e := bits.Len64(v) - histSubBits - 1
	return (e+1)<<histSubBits + int(v>>uint(e)) - histSub
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	e := i>>histSubBits - 1
	m := uint64(i&(histSub-1) + histSub)
	return float64(m << uint(e)), float64((m + 1) << uint(e))
}

func (h *hist) add(d int64) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := bucketBounds(i)
			frac := (target - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += float64(c)
	}
	lo, _ := bucketBounds(histBuckets - 1)
	return lo
}

// beyond reports how many samples lie above the q-quantile, the
// support a tail percentile needs before it is worth reporting.
func (h *hist) beyond(q float64) uint64 {
	return h.n - uint64(q*float64(h.n))
}

func us(ns float64) float64 { return ns / float64(time.Microsecond) }
