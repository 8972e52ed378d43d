package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var any = regexp.MustCompile(".*")

func TestParseBenchLines(t *testing.T) {
	lines := []string{
		"BenchmarkEventKernel-8   \t 1000 \t 123.4 ns/op \t 5 B/op \t 2 allocs/op",
		"BenchmarkEventKernel-8   \t 1200 \t 120.0 ns/op",
		"not a benchmark line",
		"BenchmarkOther 	 10 	 9e+03 ns/op",
	}
	got, allocs := parse(lines)
	if len(got["BenchmarkEventKernel"]) != 2 {
		t.Fatalf("samples = %v, want 2 for BenchmarkEventKernel", got)
	}
	if v := got["BenchmarkOther"]; len(v) != 1 || v[0] != 9000 {
		t.Fatalf("BenchmarkOther = %v, want [9000]", v)
	}
	if v := allocs["BenchmarkEventKernel"]; len(v) != 1 || v[0] != 2 {
		t.Fatalf("BenchmarkEventKernel allocs = %v, want [2]", v)
	}
	if v, ok := allocs["BenchmarkOther"]; ok {
		t.Fatalf("BenchmarkOther allocs = %v, want none (no -benchmem)", v)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// TestGuardAllocs pins the fixed allocs/op rule: a median more than 1%
// above the baseline's fails, anything within 1% or below passes, an exact
// zero baseline admits no allocation at all, and benchmarks without
// allocation samples on either side, or filtered out, are not reported.
func TestGuardAllocs(t *testing.T) {
	oldA := map[string][]float64{
		"BenchmarkFlat":   {1000, 1000, 1000},
		"BenchmarkDrift":  {1000000, 1000100, 999900},
		"BenchmarkGrew":   {100, 100, 100},
		"BenchmarkZero":   {0, 0},
		"BenchmarkFewer":  {4},
		"BenchmarkNoNew":  {7},
		"BenchmarkHidden": {10},
	}
	newA := map[string][]float64{
		"BenchmarkFlat":   {1000, 1000},
		"BenchmarkDrift":  {1009000, 1008000, 1009500}, // +0.9%: within 1%
		"BenchmarkGrew":   {102, 101, 103},             // +2%: fails
		"BenchmarkZero":   {0, 1, 1},                   // 1 against an exact 0
		"BenchmarkFewer":  {1},
		"BenchmarkNoOld":  {3},
		"BenchmarkHidden": {1000},
	}
	var b strings.Builder
	if guardAllocs(&b, oldA, newA, regexp.MustCompile("^Benchmark[^H]")) {
		t.Fatalf("allocs guard passed despite a 2%% rise and a new allocation:\n%s", b.String())
	}
	out := b.String()
	for _, want := range []string{
		"ok   BenchmarkDrift",
		"ok   BenchmarkFewer",
		"ok   BenchmarkFlat",
		"FAIL BenchmarkGrew",
		"FAIL BenchmarkZero",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, absent := range []string{"BenchmarkNoNew", "BenchmarkNoOld", "BenchmarkHidden"} {
		if strings.Contains(out, absent) {
			t.Errorf("output reports %s, which has no samples on one side or is filtered out:\n%s", absent, out)
		}
	}
	if strings.Index(out, "BenchmarkDrift") > strings.Index(out, "BenchmarkZero") {
		t.Errorf("output not sorted by name:\n%s", out)
	}

}

// TestJudgeAB pins bench/compare's rule as -ab applies it to paired ns/op
// samples, in both directions, and that fewer than 10 pairs get no verdict.
func TestJudgeAB(t *testing.T) {
	base := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101} // q1 98.75, q3 101.25
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	nineOfTen := shift(base, -5)
	nineOfTen[3] = base[3] + 1 // the head loses one pair
	eightOfTen := append([]float64(nil), nineOfTen...)
	eightOfTen[5] = base[5] + 1
	cases := []struct {
		name       string
		base, head []float64
		verdict    string
		wins, pair int
	}{
		{"10 of 10 faster, gap past the IQR", base, shift(base, -10), "faster", 10, 10},
		{"9 of 10 faster", base, nineOfTen, "faster", 9, 10},
		{"8 of 10 faster", base, eightOfTen, "unchanged", 8, 10},
		{"10 of 10 faster, gap within the IQR", base, shift(base, -1), "unchanged", 10, 10},
		{"10 of 10 slower", base, shift(base, 10), "slower", 0, 10},
		{"identical", base, base, "unchanged", 0, 10},
		{"unpaired extra run ignored", base, append(shift(base, -10), 1e9), "faster", 10, 10},
		{"9 of 9 faster: too few pairs", base[:9], shift(base[:9], -10), "too few pairs", 9, 9},
		{"1 of 1 faster: too few pairs", base[:1], shift(base[:1], -10), "too few pairs", 1, 1},
		{"9 of 9 slower: too few pairs", base[:9], shift(base[:9], 10), "too few pairs", 0, 9},
		{"nothing paired", base, nil, "too few pairs", 0, 0},
	}
	for _, tc := range cases {
		v := judgeAB(tc.base, tc.head)
		if v.verdict != tc.verdict || v.wins != tc.wins || v.pairs != tc.pair {
			t.Errorf("%s: %s with %d/%d wins, want %s with %d/%d", tc.name, v.verdict, v.wins, v.pairs, tc.verdict, tc.wins, tc.pair)
		}
	}
	if v := judgeAB(base, shift(base, -10)); v.baseQ1 != 98.75 || v.baseQ3 != 101.25 || v.baseMed != 100 {
		t.Errorf("base median [q1, q3] = %v [%v, %v], want 100 [98.75, 101.25]", v.baseMed, v.baseQ1, v.baseQ3)
	}
}

// TestReadPlainBenchLines pins that -ab reads plain `go test -bench`
// output, which keeps run order: sample i of a benchmark is its i-th run.
func TestReadPlainBenchLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.txt")
	text := "goos: linux\nBenchmarkA-2 \t 100 \t 30 ns/op\nPASS\nBenchmarkA-2 \t 100 \t 10 ns/op\nBenchmarkA-2 \t 100 \t 20 ns/op\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	lines, err := readBenchLines(path)
	if err != nil {
		t.Fatal(err)
	}
	ns, _ := parse(lines)
	if got := ns["BenchmarkA"]; len(got) != 3 || got[0] != 30 || got[1] != 10 || got[2] != 20 {
		t.Fatalf("samples = %v, want [30 10 20] in run order", got)
	}
	var b strings.Builder
	reportAB(&b, map[string][]float64{"BenchmarkA": {30, 10, 20}, "BenchmarkOld": {1}}, ns, any)
	if out := b.String(); !strings.Contains(out, "BenchmarkA") || strings.Contains(out, "BenchmarkOld") {
		t.Errorf("report should list exactly the benchmarks run on both sides:\n%s", out)
	}
}

// TestReportABExit pins -ab's exit decision: a "slower" verdict fails,
// after the whole table is printed; "too few pairs" and a benchmark only
// the head ran do not.
func TestReportABExit(t *testing.T) {
	base := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	cases := []struct {
		name       string
		base, head map[string][]float64
		ok         bool
	}{
		{"faster and unchanged", map[string][]float64{"BenchmarkA": base, "BenchmarkB": base},
			map[string][]float64{"BenchmarkA": shift(base, -10), "BenchmarkB": base}, true},
		{"one slower", map[string][]float64{"BenchmarkA": base, "BenchmarkB": base},
			map[string][]float64{"BenchmarkA": shift(base, 10), "BenchmarkB": shift(base, -10)}, false},
		{"slower in too few pairs", map[string][]float64{"BenchmarkA": base[:9]},
			map[string][]float64{"BenchmarkA": shift(base[:9], 10)}, true},
		{"new benchmark", map[string][]float64{"BenchmarkA": base},
			map[string][]float64{"BenchmarkA": base, "BenchmarkNew": shift(base, 1e6)}, true},
	}
	for _, tc := range cases {
		var b strings.Builder
		if ok := reportAB(&b, tc.base, tc.head, regexp.MustCompile(".")); ok != tc.ok {
			t.Errorf("%s: reportAB = %v, want %v", tc.name, ok, tc.ok)
		}
		for name := range tc.base {
			if !strings.Contains(b.String(), name) {
				t.Errorf("%s: table lacks %s:\n%s", tc.name, name, b.String())
			}
		}
	}
}
