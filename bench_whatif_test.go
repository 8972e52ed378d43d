package repro

// What-if service benchmarks: the price of a cold session (every arm's
// simulations, render and insert) against a hit (the same session's report
// served whole from the resident entry). The spread between the two is the
// interactivity the service buys — a repeated what-if runs nothing.

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/whatif"
)

// whatifBenchSpec is a deliberately small two-application scenario so the
// benches measure the service path, not a campaign.
func whatifBenchSpec(name string) scenario.Spec {
	return scenario.Spec{
		Name:    name,
		Servers: 2,
		DeltaS:  []float64{0},
		Apps: []scenario.App{
			{Name: "bulk", Procs: 4, IO: scenario.IO{BlockMB: 4}},
			{Name: "strided", Procs: 2, IO: scenario.IO{Pattern: "strided", BlockMB: 2, TransferKB: 256}},
		},
	}
}

func BenchmarkWhatIfCacheMiss(b *testing.B) {
	srv := whatif.New(whatif.Config{Workers: 1})
	defer srv.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh scenario and app names are fresh content addresses: the
		// report and every simulation under it are cold.
		spec := whatifBenchSpec(fmt.Sprintf("bench-miss-%d", i))
		for k := range spec.Apps {
			spec.Apps[k].Name += fmt.Sprintf("-%d", i)
		}
		if _, hit, err := srv.Compute(&whatif.Query{Spec: &spec, Backend: cluster.HDD}); err != nil || hit {
			b.Fatalf("hit=%v err=%v", hit, err)
		}
	}
}

func BenchmarkWhatIfCacheHit(b *testing.B) {
	srv := whatif.New(whatif.Config{Workers: 1})
	defer srv.Close()
	spec := whatifBenchSpec("bench-hit")
	q := &whatif.Query{Spec: &spec, Backend: cluster.HDD}
	if _, _, err := srv.Compute(q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit, err := srv.Compute(q); err != nil || !hit {
			b.Fatalf("hit=%v err=%v", hit, err)
		}
	}
}
