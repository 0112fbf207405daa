package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond the highest percentile a
// run reports; with p90 that asks for at least 100 samples.
const minTail = 10

// minOps is the smallest sample count a p90 can be reported from.
const minOps = 100

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// values, which it does not modify. An empty input gives 0.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s[rankOf(len(s), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// sorted samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples ranked strictly above the p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rankOf(n, p)
}

// latencySummary is the median and p90 of one latency population.
type latencySummary struct {
	N   int
	P50 float64
	P90 float64
}

// summarize reports p50 and p90, refusing populations that leave fewer
// than minTail samples beyond the p90.
func summarize(values []float64) (latencySummary, error) {
	if b := beyond(len(values), 90); b < minTail {
		return latencySummary{}, fmt.Errorf("%d samples leave %d beyond p90 (need %d, i.e. at least %d samples)",
			len(values), b, minTail, minOps)
	}
	return latencySummary{N: len(values), P50: percentile(values, 50), P90: percentile(values, 90)}, nil
}

// perOp divides a counter delta by the op count (0 ops gives 0).
func perOp(delta float64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return delta / float64(ops)
}

// ratio is part over base, 0 when the base is empty. Every ratio the
// benchmark reports names its base next to the call.
func ratio(part, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return part / base
}

// median of values (0 for none).
func median(values []float64) float64 { return percentile(values, 50) }
