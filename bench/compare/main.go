// Command compare judges two sets of benchmark runs, a parent (OLD) and a
// change (NEW), by a paired, noise-aware rule (see stats.Compare):
//
//	cd bench && go run ./compare OLD NEW
//
// OLD and NEW are result directories the benchmark wrote (its --out
// directory's results/ folder), each holding runs of several seeds. Runs
// pair by workload and seed. For every workload and every end-to-end
// metric of BENCHMARK.json (found in the working directory or the nearest
// parent that has one) it prints each side's median and quartiles, the
// pairs the change won and a verdict: improved, regressed, unchanged or
// unresolved. It exits 1 when any metric regressed or any failure was
// recorded, and 2 on bad input.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"repro/bench/stats"
)

// config is the part of BENCHMARK.json the rule needs.
type config struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// run is the part of one result file the rule needs.
type run struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Trace     int    `json:"trace"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: compare OLD NEW")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	bad, err := compare(flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if bad {
		os.Exit(1)
	}
}

// compare prints the verdicts and reports whether any metric regressed or
// any run failed a check.
func compare(oldDir, newDir string) (bool, error) {
	cfg, err := loadConfig()
	if err != nil {
		return false, err
	}
	old, err := loadRuns(oldDir)
	if err != nil {
		return false, err
	}
	cur, err := loadRuns(newDir)
	if err != nil {
		return false, err
	}
	bad := false
	fmt.Printf("%-14s %-18s %-32s %-32s %6s %8s  %s\n",
		"workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "wins", "change", "verdict")
	for _, w := range cfg.Workloads {
		seeds := pairedSeeds(old[w.Name], cur[w.Name])
		if len(seeds) == 0 {
			fmt.Printf("%-14s no paired runs\n", w.Name)
			continue
		}
		for _, side := range []struct {
			name string
			runs map[uint64]run
		}{{"old", old[w.Name]}, {"new", cur[w.Name]}} {
			for _, s := range seeds {
				if r := side.runs[s]; r.Failed > 0 {
					fmt.Printf("%-14s %s seed %d: %d of %d operations failed\n", w.Name, side.name, s, r.Failed, r.Attempted)
					bad = true
				}
			}
		}
		for _, m := range cfg.EndToEnd {
			ov, nv, err := paired(seeds, old[w.Name], cur[w.Name], m.Name)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.Name, err)
			}
			c := stats.Compare(ov, nv, m.Better == "lower", m.Bound)
			fmt.Printf("%-14s %-18s %-32s %-32s %2d/%-3d %+7.1f%%  %s\n", w.Name, m.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", c.OldMedian, c.OldQ1, c.OldQ3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", c.NewMedian, c.NewQ1, c.NewQ3),
				c.Wins, c.Pairs, 100*c.Change, c.Verdict)
			bad = bad || c.Verdict == stats.Regressed
		}
	}
	return bad, nil
}

// loadConfig reads BENCHMARK.json from the working directory or the
// nearest parent directory that has one.
func loadConfig() (*config, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var c config
			if err := json.Unmarshal(b, &c); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &c, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("no BENCHMARK.json in the working directory or above")
		}
		dir = parent
	}
}

// loadRuns reads every untraced result file of dir, by workload and seed.
func loadRuns(dir string) (map[string]map[uint64]run, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	out := map[string]map[uint64]run{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r run
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[uint64]run{}
		}
		out[r.Workload][r.Seed] = r
	}
	return out, nil
}

// pairedSeeds returns the seeds both sides ran, ascending.
func pairedSeeds(a, b map[uint64]run) []uint64 {
	var seeds []uint64
	for s := range a {
		if _, ok := b[s]; ok {
			seeds = append(seeds, s)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return seeds
}

// paired returns one metric's values on both sides, in seed order.
func paired(seeds []uint64, a, b map[uint64]run, metric string) (old, cur []float64, err error) {
	for _, s := range seeds {
		x, okA := a[s].Metrics[metric]
		y, okB := b[s].Metrics[metric]
		if !okA || !okB {
			return nil, nil, fmt.Errorf("seed %d lacks metric %s", s, metric)
		}
		old = append(old, x.Value)
		cur = append(cur, y.Value)
	}
	return old, cur, nil
}
