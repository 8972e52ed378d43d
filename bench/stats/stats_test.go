package stats

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(tc.in); got != tc.want {
			t.Errorf("Median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.5, 7.5},
	} {
		q1, q3 := Quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
	if q1, q3 := Quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("Quartiles of one value = %v, %v", q1, q3)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := Percentile(xs, 99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := Percentile(xs, 50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := Percentile(xs, 100); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9},
		{9999, 99},
		{1200, 99},
		{1000, 99},
		{999, 95},
		{200, 95},
		{199, 90},
		{100, 90},
		{99, 50},
		{6, 50},
	} {
		if got := TailPercentile(tc.n); got != tc.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestCompareRule(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name        string
		old, new    []float64
		lowerBetter bool
		want        Verdict
	}{
		{"same code", base, shift(base, 1.01), true, Unchanged},
		{"clear gain", base, shift(base, 0.8), true, Improved},
		{"gain on a higher-is-better metric", base, shift(base, 1.2), false, Improved},
		{"slip beyond the bound", base, shift(base, 1.15), true, Regressed},
		{"slip within the bound", base, shift(base, 1.05), true, Unchanged},
		{"noisy parent", []float64{50, 150, 70, 130, 100, 60, 140, 100, 90, 110}, base, true, Unresolved},
		{"noisy and far worse", base, []float64{100, 200, 140, 180, 150, 110, 190, 150, 140, 160}, true, Regressed},
		{"noisy but every run better", []float64{200, 300, 250, 220, 280, 210, 290, 240, 260, 230}, base, true, Improved},
	} {
		c := Compare(tc.old, tc.new, tc.lowerBetter, 0.1)
		if c.Verdict != tc.want {
			t.Errorf("%s: verdict %s (wins %d/%d, change %.3f), want %s",
				tc.name, c.Verdict, c.Wins, c.Pairs, c.Change, tc.want)
		}
	}
}

// Eight wins out of ten is not enough for a claim, however large the gap.
func TestCompareNeedsNineTenths(t *testing.T) {
	old := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	new := []float64{50, 50, 50, 50, 50, 50, 50, 50, 150, 150}
	if c := Compare(old, new, true, 0.1); c.Verdict == Improved {
		t.Fatalf("8/10 wins claimed as improved: %+v", c)
	}
}
