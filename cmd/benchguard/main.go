// benchguard judges benchmark runs. It has two modes.
//
// By default it compares two `go test -json` benchmark snapshots (the
// BENCH_N.json files the Makefile's bench target writes) by allocation
// count, which does not depend on the machine: a benchmark whose median
// allocs/op exceeds the baseline's by more than 1% fails. Micro-benchmarks
// allocate exactly the same every run, and the Figure 2 campaign moved by
// at most 0.1% between runs in BENCH_12 and BENCH_14, so the rule catches
// an allocation a hot path gains. Only benchmarks that report allocs/op in
// both snapshots are compared (new benches appear, old ones retire, and
// benchmarks run without -benchmem report none). Time is not judged across
// snapshots: they come from different hosts, whose speed has drifted 2–3×
// from one snapshot to the next.
//
// With -ab the two files are runs of a base and a head test binary
// alternated on one host (make bench-ab), so host drift hits both sides
// alike. Result i of a benchmark in one file pairs with result i in the
// other, and each benchmark gets a ns/op verdict by bench/compare's rule
// (see judgeAB). This mode prints every verdict, then exits 1 if any
// benchmark is "slower". "too few pairs" fails nothing, and a benchmark
// only one side ran is not compared, so a change that adds a guarded
// benchmark is not failed for it.
//
// Usage:
//
//	benchguard -old BENCH_19.json -new BENCH_22.json [-match regexp]
//	benchguard -ab -old base.txt -new head.txt [-match regexp]
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

	if !guardAllocs(os.Stdout, oldA, newA, re) {
		fmt.Fprintf(os.Stderr, "benchguard: allocs/op above the baseline by more than %.0f%%\n", 100*(allocsTolerance-1))
		os.Exit(1)
	}
}

// allocsTolerance is the fixed allocs/op rule: a guarded benchmark fails
// when its median exceeds the baseline's by more than 1%.
const allocsTolerance = 1.01

// guardAllocs applies the allocs/op rule to every matching benchmark that
// reports allocs/op in both snapshots, printing one sorted line each, and
// reports whether all of them pass. A benchmark without allocation samples
// on either side is not judged.
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
