package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeRuns writes ten fig2-contig result files whose every end-to-end
// metric reads 100·scale(metric), plus one traced file that must be
// ignored.
func writeRuns(t *testing.T, scale func(metric string) float64) string {
	t.Helper()
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for seed := 1; seed <= 10; seed++ {
		metrics := map[string]map[string]float64{}
		for _, m := range cfg.EndToEnd {
			metrics[m.Name] = map[string]float64{"value": 100 * scale(m.Name) * (1 + 0.002*float64(seed%3))}
		}
		for trace := 0; trace <= 1; trace++ {
			b, err := json.Marshal(map[string]any{
				"workload": "fig2-contig", "seed": seed, "trace": trace,
				"attempted": 10, "failed": 0, "metrics": metrics,
			})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("fig2-contig.seed%d.trace%d.json", seed, trace)
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

func TestCompareFlagsOnlyARegression(t *testing.T) {
	same := func(string) float64 { return 1 }
	slower := func(m string) float64 {
		if m == "cpu_ms_per_op" {
			return 1.5
		}
		return 1
	}
	faster := func(m string) float64 {
		if m == "cpu_ms_per_op" {
			return 0.5
		}
		return 1
	}
	old := writeRuns(t, same)
	for _, tc := range []struct {
		name  string
		scale func(string) float64
		bad   bool
	}{{"same", same, false}, {"slower", slower, true}, {"faster", faster, false}} {
		bad, err := compare(old, writeRuns(t, tc.scale))
		if err != nil {
			t.Fatal(err)
		}
		if bad != tc.bad {
			t.Errorf("%s: compare reported bad=%v, want %v", tc.name, bad, tc.bad)
		}
	}
}
