// benchguard compares two `go test -json` benchmark snapshots (the
// BENCH_N.json files the Makefile's bench target writes) and fails when a
// benchmark regressed beyond a tolerance factor.
//
// It guards the *serial-path* trajectory across PRs: the bench job runs it
// with the previous PR's committed snapshot as -old and the fresh one as
// -new. The time tolerance is deliberately generous — snapshots come from
// different CI machines (different CPUs, frequencies, neighbors), so only
// a gross regression (default 1.5×) is a signal rather than noise.
//
// Allocation counts do not depend on the machine, so they get a tight,
// fixed rule instead: a benchmark whose median allocs/op exceeds the
// baseline's by more than 1% fails. Micro-benchmarks allocate exactly the
// same every run, and the Figure 2 campaign moved by at most 0.1% between
// runs in BENCH_12 and BENCH_14, so the rule catches an allocation a hot
// path gains that the time gate would miss. Benchmarks run without
// -benchmem report no allocs/op and are guarded on time alone.
//
// Usage:
//
//	benchguard -old BENCH_5.json -new BENCH_6.json [-tolerance 1.5] [-match regexp]
//	benchguard -ab -old base.txt -new head.txt [-match regexp]
//
// Benchmarks present in only one file are reported but never fail the
// guard (new benches appear, old ones retire): the comparison always runs
// over the intersection. An empty intersection — a baseline predating
// every current benchmark — is a warning, not an error: the guard has
// nothing to check yet, and failing would block the very PR that
// introduces the benchmarks.
//
// With -ab the two files are runs of a base and a head test binary
// alternated on one host (make bench-ab), so host drift hits both sides
// alike. Result i of a benchmark in one file pairs with result i in the
// other, and each benchmark gets a verdict by bench/compare's rule (see
// judgeAB). This mode prints every verdict, then exits 1 if any benchmark
// is "slower". "too few pairs" fails nothing, and a benchmark only one
// side ran is not compared, so a change that adds a guarded benchmark is
// not failed for it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// testEvent is the subset of the `go test -json` event stream we read.
type testEvent struct {
	Action string
	Output string
}

// readBenchLines returns the lines of a benchmark log: plain `go test
// -bench` output as it is, or the reassembled textual output of a -json
// stream. Long benchmark result lines are split across multiple Output
// events, so the stream is concatenated first and split on newlines after.
func readBenchLines(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if t := bytes.TrimSpace(data); len(t) == 0 || t[0] != '{' {
		return strings.Split(string(data), "\n"), nil
	}
	var text strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return strings.Split(text.String(), "\n"), nil
}

// benchLine matches one standard benchmark result line:
//
//	BenchmarkName[-procs] <tab> iters <tab> 123.4 ns/op [more metrics]
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.e+]+) ns/op`)

// allocsMetric matches the allocs/op metric -benchmem appends to a result
// line.
var allocsMetric = regexp.MustCompile(`\s([0-9.e+]+) allocs/op`)

// parse returns ns/op and allocs/op samples per benchmark name; a result
// line without allocs/op contributes to ns/op only.
func parse(lines []string) (ns, allocs map[string][]float64) {
	ns, allocs = make(map[string][]float64), make(map[string][]float64)
	for _, line := range lines {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		ns[m[1]] = append(ns[m[1]], v)
		if a := allocsMetric.FindStringSubmatch(line); a != nil {
			if v, err := strconv.ParseFloat(a[1], 64); err == nil {
				allocs[m[1]] = append(allocs[m[1]], v)
			}
		}
	}
	return ns, allocs
}

// median of a non-empty sample set; medians resist the occasional CI
// scheduling hiccup better than means.
func median(s []float64) float64 {
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func main() {
	oldPath := flag.String("old", "", "baseline snapshot (previous PR's BENCH_N.json)")
	newPath := flag.String("new", "", "fresh snapshot to check")
	tolerance := flag.Float64("tolerance", 1.5, "fail when new median ns/op exceeds old by this factor")
	match := flag.String("match", ".*", "only guard benchmarks whose name matches this regexp")
	ab := flag.Bool("ab", false, "judge paired on-host runs of a base (-old) and a head (-new) binary; fail when one is slower")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -old and -new are required")
		os.Exit(2)
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: bad -match: %v\n", err)
		os.Exit(2)
	}

	load := func(path string) (ns, allocs map[string][]float64) {
		lines, err := readBenchLines(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		return parse(lines)
	}
	oldB, oldA := load(*oldPath)
	newB, newA := load(*newPath)
	if *ab {
		if !reportAB(os.Stdout, oldB, newB, re) {
			fmt.Fprintln(os.Stderr, "benchguard: a benchmark ran slower than the base")
			os.Exit(1)
		}
		return
	}

	timeOK := guard(os.Stdout, oldB, newB, *tolerance, re, *oldPath)
	allocsOK := guardAllocs(os.Stdout, oldA, newA, re)
	if !timeOK {
		fmt.Fprintf(os.Stderr, "benchguard: regression beyond %.2fx tolerance\n", *tolerance)
	}
	if !allocsOK {
		fmt.Fprintf(os.Stderr, "benchguard: allocs/op above the baseline by more than %.0f%%\n", 100*(allocsTolerance-1))
	}
	if !timeOK || !allocsOK {
		os.Exit(1)
	}
}

// allocsTolerance is the fixed allocs/op rule: a guarded benchmark fails
// when its median exceeds the baseline's by more than 1%.
const allocsTolerance = 1.01

// guardAllocs applies the allocs/op rule to every matching benchmark that
// reports allocs/op in both snapshots, printing one sorted line each, and
// reports whether all of them pass. A benchmark without allocation samples
// on either side is left to the time guard.
func guardAllocs(w io.Writer, oldA, newA map[string][]float64, re *regexp.Regexp) bool {
	names := make([]string, 0, len(newA))
	for name := range newA {
		if _, ok := oldA[name]; ok && re.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		o, n := median(oldA[name]), median(newA[name])
		verdict := "ok  "
		if n > o*allocsTolerance {
			verdict = "FAIL"
			ok = false
		}
		fmt.Fprintf(w, "%s %-45s old %12.0f allocs/op  new %12.0f allocs/op\n", verdict, name, o, n)
	}
	return ok
}

// guard compares the two snapshots over their intersection, printing one
// deterministic (sorted) line per benchmark — ok/FAIL for common names,
// SKIP for retired ones, NEW for benchmarks the baseline predates — and
// reports whether the guard passes. Missing baselines only warn: the guard
// checks trajectories, and a benchmark's first snapshot has none.
func guard(w io.Writer, oldB, newB map[string][]float64, tolerance float64, re *regexp.Regexp, oldPath string) bool {
	names := make([]string, 0, len(oldB)+len(newB))
	for name := range oldB {
		names = append(names, name)
	}
	for name := range newB {
		if _, ok := oldB[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	failed := false
	compared, missing := 0, 0
	for _, name := range names {
		if !re.MatchString(name) {
			continue
		}
		oldS, inOld := oldB[name]
		newS, inNew := newB[name]
		switch {
		case !inNew:
			fmt.Fprintf(w, "SKIP %-45s retired (only in %s)\n", name, oldPath)
		case !inOld:
			missing++
			fmt.Fprintf(w, "NEW  %-45s (no baseline; not guarded this round)\n", name)
		default:
			compared++
			o, n := median(oldS), median(newS)
			ratio := n / o
			verdict := "ok  "
			if ratio > tolerance {
				verdict = "FAIL"
				failed = true
			}
			fmt.Fprintf(w, "%s %-45s old %12.0f ns/op  new %12.0f ns/op  ratio %.2f\n", verdict, name, o, n, ratio)
		}
	}
	if compared == 0 {
		fmt.Fprintf(w, "benchguard: warning: no common benchmarks between the snapshots "+
			"(%d new without a baseline); nothing to guard yet\n", missing)
		return true
	}
	if failed {
		return false
	}
	fmt.Fprintf(w, "benchguard: %d benchmarks within %.2fx of %s (%d new unguarded)\n",
		compared, tolerance, oldPath, missing)
	return true
}

// abVerdict is the outcome of one benchmark's on-host A/B.
type abVerdict struct {
	baseMed, baseQ1, baseQ3 float64
	headMed, headQ1, headQ3 float64
	wins, losses, pairs     int // pairs the head ran faster, slower, in all
	verdict                 string
}

// abMinPairs is the fewest pairs judgeAB rates: the rule asks for 9 wins
// in at least 10 pairs.
const abMinPairs = 10

// judgeAB applies bench/compare's rule to paired ns/op samples, in both
// directions: the head is "faster" when it won at least 9 in 10 pairs and
// its median is lower than the base's by more than the base's
// interquartile distance, "slower" when the base won by the same rule, and
// "unchanged" otherwise. Fewer than abMinPairs pairs get no verdict ("too
// few pairs"). Ties count for neither side; extra unpaired samples on one
// side are ignored.
func judgeAB(base, head []float64) abVerdict {
	n := min(len(base), len(head))
	base, head = base[:n], head[:n]
	v := abVerdict{pairs: n, verdict: "unchanged"}
	if n == 0 {
		v.verdict = "too few pairs"
		return v
	}
	v.baseMed, v.headMed = median(base), median(head)
	v.baseQ1, v.baseQ3 = quartiles(base)
	v.headQ1, v.headQ3 = quartiles(head)
	for i := range base {
		switch {
		case head[i] < base[i]:
			v.wins++
		case head[i] > base[i]:
			v.losses++
		}
	}
	gap := math.Abs(v.headMed-v.baseMed) > v.baseQ3-v.baseQ1
	switch {
	case n < abMinPairs:
		v.verdict = "too few pairs"
	case 10*v.wins >= 9*n && v.headMed < v.baseMed && gap:
		v.verdict = "faster"
	case 10*v.losses >= 9*n && v.headMed > v.baseMed && gap:
		v.verdict = "slower"
	}
	return v
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method, the one bench/stats.Quartiles uses (Python's
// statistics.quantiles default). xs must not be empty.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// reportAB prints one sorted line per matching benchmark run on both
// sides: each side's median ns/op with its quartiles, the pairs the head
// won, the median change and the verdict. It reports whether no benchmark
// is "slower".
func reportAB(w io.Writer, baseB, headB map[string][]float64, re *regexp.Regexp) bool {
	names := make([]string, 0, len(headB))
	for name := range headB {
		if _, ok := baseB[name]; ok && re.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %-30s %-30s %7s %8s  %s\n", "benchmark", "base ns/op [q1, q3]", "head ns/op [q1, q3]", "wins", "change", "verdict")
	ok := true
	for _, name := range names {
		v := judgeAB(baseB[name], headB[name])
		ok = ok && v.verdict != "slower"
		fmt.Fprintf(w, "%-36s %-30s %-30s %3d/%-3d %+7.1f%%  %s\n", name,
			fmt.Sprintf("%.4g [%.4g, %.4g]", v.baseMed, v.baseQ1, v.baseQ3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", v.headMed, v.headQ1, v.headQ3),
			v.wins, v.pairs, 100*(v.headMed-v.baseMed)/v.baseMed, v.verdict)
	}
	return ok
}
