package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supportedPercentile returns the highest percentile not above want that
// still has at least minBeyond samples beyond it (p95 needs 200 samples, p99
// needs 1000). With fewer than 2×minBeyond samples it falls back to the
// median, the least demanding rung.
func supportedPercentile(n int, want float64) float64 {
	best := 0.5
	for _, p := range []float64{0.75, 0.9, 0.95, 0.99, 0.999} {
		if p <= want && n-rank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// rank is the nearest-rank position (1-based) of the p-quantile among n
// sorted samples. The epsilon keeps 0.9 × 100 at 90 in floating point.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)-1e-9)))
}

// quantile returns the p-quantile of sorted by nearest rank; 0 when empty.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// tailWant is the tail percentile the benchmark reports wherever it has the
// samples for it.
const tailWant = 0.95

// medianAndTail sorts values in place and returns their median and their
// highest supported percentile up to tailWant, both by nearest rank.
func medianAndTail(values []float64) (p50, tail float64) {
	sort.Float64s(values)
	return quantile(values, 0.5), quantile(values, supportedPercentile(len(values), tailWant))
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// ratio is num/den, 0 when den is 0: a layer that did no work reports 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// subWindows is how many equal slices of the window a rate is the median of:
// one host stall spoils one slice, not the result.
const subWindows = 6

// tick is one reading of a cumulative count at an instant (ns since the run's
// epoch).
type tick struct {
	at    int64
	count int64
}

// subWindowRates returns the per-second rates of count over subWindows equal
// slices of [start, end). Each slice runs between the first ticks at or after
// its two boundaries and divides by the time that actually passed between
// them, so late ticks do not bias the rate. Slices the ticks do not cover are
// left out.
func subWindowRates(ticks []tick, start, end int64) []float64 {
	at := func(bound int64) (tick, bool) {
		i := sort.Search(len(ticks), func(i int) bool { return ticks[i].at >= bound })
		if i == len(ticks) {
			return tick{}, false
		}
		return ticks[i], true
	}
	var rates []float64
	for k := 0; k < subWindows; k++ {
		lo, okLo := at(start + (end-start)*int64(k)/subWindows)
		hi, okHi := at(start + (end-start)*int64(k+1)/subWindows)
		if okLo && okHi && hi.at > lo.at {
			rates = append(rates, float64(hi.count-lo.count)/(float64(hi.at-lo.at)/1e9))
		}
	}
	return rates
}
