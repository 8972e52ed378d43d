// Package stats holds the order statistics the benchmark reports and the
// noise-aware rule bench/compare applies to two sets of runs.
package stats

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartiles of xs by the "exclusive"
// method — the default of Python's statistics.quantiles(xs, n=4), which is
// how the spread of a set of runs is judged. Fewer than two values yield
// the single value (or NaN) for both.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// Spread is the interquartile distance of xs as a share of its median.
func Spread(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / Median(xs)
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// tailLadder lists the tail percentiles a timing may report, highest first.
var tailLadder = []float64{99.9, 99, 95, 90}

// MinBeyond is the number of samples that must lie beyond a reported tail
// percentile for it to mean anything.
const MinBeyond = 10

// TailPercentile returns the highest percentile of tailLadder that has at
// least MinBeyond of n samples beyond it, or 50 (the median) when n is too
// small for any of them.
func TailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= MinBeyond-1e-9 {
			return p
		}
	}
	return 50
}

// Verdict is the outcome of comparing one metric on one workload between
// a parent (old) and a change (new).
type Verdict string

// The verdicts Compare gives.
const (
	Improved   Verdict = "improved"
	Regressed  Verdict = "regressed"
	Unchanged  Verdict = "unchanged"
	Unresolved Verdict = "unresolved"
)

// Comparison is the evidence behind one Verdict.
type Comparison struct {
	OldMedian, OldQ1, OldQ3 float64
	NewMedian, NewQ1, NewQ3 float64
	// Wins and Pairs count the pairs the change won (ties count for
	// neither side); Change is the relative worsening of the new median
	// (positive = worse, in the metric's own direction).
	Wins, Pairs int
	Change      float64
	Verdict     Verdict
}

// Compare applies the rule to one metric. old[i] and new[i] are paired
// runs (same seed); lowerBetter gives the metric's direction and bound the
// share by which its median may worsen. A gain needs the change to win at
// least nine tenths of the pairs and the medians to differ by more than
// the parent's own interquartile distance. Otherwise a median worse by
// more than the bound is a regression; when either side's spread exceeds
// the bound the result is unresolved unless every new run beats every old
// run; anything else is unchanged.
func Compare(old, new []float64, lowerBetter bool, bound float64) Comparison {
	c := Comparison{OldMedian: Median(old), NewMedian: Median(new)}
	c.OldQ1, c.OldQ3 = Quartiles(old)
	c.NewQ1, c.NewQ3 = Quartiles(new)
	better := func(a, b float64) bool { // a reads better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	c.Pairs = min(len(old), len(new))
	for i := 0; i < c.Pairs; i++ {
		if better(new[i], old[i]) {
			c.Wins++
		}
	}
	c.Change = (c.NewMedian - c.OldMedian) / c.OldMedian
	if !lowerBetter {
		c.Change = -c.Change
	}
	diff := math.Abs(c.NewMedian - c.OldMedian)
	switch {
	case c.Pairs > 0 && 10*c.Wins >= 9*c.Pairs && better(c.NewMedian, c.OldMedian) &&
		diff > c.OldQ3-c.OldQ1:
		c.Verdict = Improved
	case c.Change > bound:
		c.Verdict = Regressed
	case (Spread(old) > bound || Spread(new) > bound) && !allBetter(new, old, better):
		c.Verdict = Unresolved
	default:
		c.Verdict = Unchanged
	}
	return c
}

// allBetter reports whether every value of a reads better than every value
// of b.
func allBetter(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}
