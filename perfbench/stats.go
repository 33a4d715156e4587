package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it. It
// returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// geomean returns the geometric mean of the positive values in xs, or 0
// when there are none. Non-positive values mark inputs a layer did not run
// on, so they are left out rather than collapsing the mean to zero.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	first, same := 0.0, true
	for _, x := range xs {
		if x > 0 {
			if n == 0 {
				first = x
			}
			same = same && x == first
			sum += math.Log(x)
			n++
		}
	}
	switch {
	case n == 0:
		return 0
	case same:
		// Exact for a single input, so counts such as markings repeat
		// exactly rather than through a log/exp round trip.
		return first
	}
	return math.Exp(sum / float64(n))
}

// medianOfGroups aggregates per-input samples the way every per-job metric
// is aggregated: the median of each input's samples, then the geometric
// mean of those medians over the inputs. Mixed-size inputs would make a
// pooled median jump between size clusters; this form does not.
func medianOfGroups(groups map[string][]float64) float64 {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	meds := make([]float64, 0, len(keys))
	for _, k := range keys {
		meds = append(meds, median(groups[k]))
	}
	return geomean(meds)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
