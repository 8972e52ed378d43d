// Command bench is the repository benchmark: four workloads that drive the
// simulator and the what-if service through their public packages, check
// every output, and report end-to-end metrics (or, with --trace 1,
// per-layer metrics). Run it from the repository root:
//
//	bash bench/run.sh --workload fig2-contig --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; every run also writes it, with
// sample counts, to <out>/results/ for bench/compare. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// workloadSpec names one workload and builds it for a seed.
type workloadSpec struct {
	name string
	// setup generates and validates the workload's inputs from seed and
	// starts whatever serves them; its cost is the setup_s metric.
	setup func(seed uint64, size sizing) (workload, error)
	// minIters is the smallest number of timed iterations a run makes,
	// whatever --seconds says.
	minIters int
}

// workloads lists the benchmark's workloads; BENCHMARK.json records why
// each one exists.
var workloads = []workloadSpec{
	{name: "fig2-contig", setup: setupFig2, minIters: 3},
	{name: "qos-mixed-ssd", setup: setupQoSMix, minIters: 3},
	{name: "fleet-1024", setup: setupFleet, minIters: 3},
	{name: "whatifd-open", setup: setupWhatif, minIters: whatifMinSegments},
}

func lookupWorkload(name string) (workloadSpec, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one benchmark run. The first four fields are
// the line the run prints last; the rest go to the result file.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Workload string `json:"workload,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	Trace    int    `json:"trace"`
	// Ungated holds measurements reported beside the metrics but too
	// noisy on the benchmark's host to bound (wall time, latency).
	Ungated map[string]metric `json:"ungated,omitempty"`
	Samples map[string]int    `json:"samples,omitempty"`
}

// set records one metric with the number of samples behind it.
func (r *result) set(name string, value float64, unit string, samples int) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
	r.setSamples(name, samples)
}

// setUngated records one ungated measurement with its sample count.
func (r *result) setUngated(name string, value float64, unit string, samples int) {
	if r.Ungated == nil {
		r.Ungated = map[string]metric{}
	}
	r.Ungated[name] = metric{Value: value, Unit: unit}
	r.setSamples(name, samples)
}

func (r *result) setSamples(name string, n int) {
	if r.Samples == nil {
		r.Samples = map[string]int{}
	}
	r.Samples[name] = n
}

// account adds checked operations to the run's tally.
func (r *result) account(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: every workload in turn)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer probe instead of the timed run")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for result and span files")
	flag.Parse()
	if *seconds < 1 {
		fail(fmt.Errorf("--seconds must be >= 1, got %d", *seconds))
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	var names []string
	switch {
	case *workload != "":
		if _, err := lookupWorkload(*workload); err != nil {
			fail(err)
		}
		names = []string{*workload}
	case *trace == 1:
		names = []string{"all"} // the traced probe covers every workload
	default:
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	// Every workload stays within the machine's cores: shard counts and
	// worker pools are clamped to this.
	runtime.GOMAXPROCS(runtime.NumCPU())
	correct := true
	for _, name := range names {
		ok, err := run(name, *seed, *seconds, *trace, *out)
		if err != nil {
			fail(err)
		}
		correct = correct && ok
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "bench: output checks failed")
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// run measures one workload (or, traced, every layer), prints its metrics
// and result line, writes its result file and reports whether every
// output check passed.
func run(name string, seed uint64, seconds, trace int, out string) (bool, error) {
	var res *result
	var err error
	if trace == 1 {
		res, err = traced(seed, out, fullSize)
	} else {
		w, _ := lookupWorkload(name)
		res, err = measure(w, seed, seconds, fullSize)
	}
	if err != nil {
		return false, err
	}
	res.Workload, res.Seed, res.Trace = name, seed, trace
	res.Correct = res.Failed == 0 && res.Attempted > 0
	printHuman(res)
	if err := writeResult(out, res); err != nil {
		return false, err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// printHuman prints every metric, then every ungated measurement, by name
// with its unit and sample count.
func printHuman(r *result) {
	fmt.Printf("# %s seed=%d trace=%d attempted=%d failed=%d fail_ratio=%.4g\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, float64(r.Failed)/float64(max(1, r.Attempted)))
	for _, group := range []struct {
		ms   map[string]metric
		note string
	}{{r.Metrics, ""}, {r.Ungated, " (ungated)"}} {
		names := make([]string, 0, len(group.ms))
		for n := range group.ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := group.ms[n]
			fmt.Printf("%-40s %14.6g %-6s n=%d%s\n", n, m.Value, m.Unit, r.Samples[n], group.note)
		}
	}
}

// writeResult stores the run for bench/compare.
func writeResult(out string, r *result) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.seed%d.trace%d.json", r.Workload, r.Seed, r.Trace))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
