package main

import (
	"sort"
	"time"

	"ldplayer/internal/metrics"
)

// sample is one timed observation: when in the pass it was taken (its
// intended send time, as an offset from the first send) and its value
// in microseconds.
type sample struct {
	at time.Duration
	us float64
}

// supportedPercentiles are the percentiles the benchmark ever reports,
// lowest first.
var supportedPercentiles = []float64{0.50, 0.75, 0.90, 0.99, 0.999, 0.9999}

// highestSupported returns the highest reported percentile that still
// has at least ten of n samples beyond it, and n itself so the caller
// states the sample count beside the figure. With fewer than 20 samples
// not even the median qualifies and ok is false.
func highestSupported(n int) (p float64, ok bool) {
	for _, c := range supportedPercentiles {
		if supports(n, c) {
			p, ok = c, true
		}
	}
	return p, ok
}

// supports reports whether n samples leave at least ten beyond the
// p-quantile (with room for the rounding of 1-p).
func supports(n int, p float64) bool { return float64(n)*(1-p) >= 10-1e-6 }

// quantile sorts a copy of vs and returns its p-quantile (0..1); 0 for
// an empty sample so a metric never prints NaN.
func quantile(vs []float64, p float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return sortedQuantile(s, p)
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// slicedQuantile is the benchmark's steady estimator for a gated
// percentile: cut the measured window into slices of sliceLen, take the
// p-quantile inside every slice that supports it (ten samples beyond
// p), and report the median over slices. One disturbed second moves one
// slice, not the figure. It returns the estimate, the samples used and
// the slices used.
func slicedQuantile(ss []sample, from, sliceLen time.Duration, p float64) (v float64, n, slices int) {
	bySlice := map[int][]float64{}
	for _, s := range ss {
		if s.at < from {
			continue
		}
		i := int((s.at - from) / sliceLen)
		bySlice[i] = append(bySlice[i], s.us)
	}
	var per []float64
	for _, vs := range bySlice {
		if !supports(len(vs), p) {
			continue
		}
		per = append(per, quantile(vs, p))
		n += len(vs)
	}
	return median(per), n, len(per)
}

// pooled returns, sorted, the value of every sample at or after from:
// the ungated tail figures are plain quantiles of it, and its length is
// the sample count stated beside them.
func pooled(ss []sample, from time.Duration) []float64 {
	var vs []float64
	for _, s := range ss {
		if s.at >= from {
			vs = append(vs, s.us)
		}
	}
	sort.Float64s(vs)
	return vs
}

// sortedQuantile is the p-quantile of already-sorted values, 0 if none.
func sortedQuantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return metrics.Percentile(sorted, p)
}
