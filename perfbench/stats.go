package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	return quantile(sorted(xs), 0.5)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending sample by
// linear interpolation between closest ranks, or 0 for no samples.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailCandidates are the percentiles a tail latency may be reported at,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for tail latency: report the
// highest candidate percentile that still has at least ten samples beyond
// it, so a tail value is never one or two outliers. It returns the chosen
// percentile and its value; below twenty samples it falls back to the
// median (percentile 50).
func tailPercentile(xs []float64) (pct, value float64) {
	s := sorted(xs)
	n := float64(len(s))
	for _, p := range tailCandidates {
		if n*(1-p/100) >= 10-1e-9 {
			return p, quantile(s, p/100)
		}
	}
	return 50, quantile(s, 0.5)
}

// geomean returns the geometric mean of the positive values of xs, or 0
// when there are none.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 && !math.IsInf(x, 0) {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
