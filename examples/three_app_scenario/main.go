// Three-application scenario: build an N-app experiment through the
// declarative scenario layer — a bulk checkpoint writer, a strided analysis
// writer and a reader co-running on four servers — run it on HDD and SSD,
// and print the δ-graph plus the pairwise interference-factor matrix that
// the two-application paper methodology cannot express.
//
// The same spec, as JSON, could live in a file and run via:
//
//	go run ./cmd/scenarios -file scenario.json
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/scenario"
)

func main() {
	spec := scenario.Spec{
		Name:        "checkpoint-analysis-read",
		Description: "bulk checkpoint vs strided analysis output vs restart read",
		Servers:     4,
		DeltaS:      []float64{-10, 0, 10},
		Apps: []scenario.App{
			{Name: "checkpoint", Procs: 32, IO: scenario.IO{BlockMB: 64}},
			{Name: "analysis", Procs: 16, IO: scenario.IO{Pattern: "strided", BlockMB: 16, TransferKB: 256}},
			{Name: "restart", Procs: 16, IO: scenario.IO{BlockMB: 32, Read: true}, StartS: 2},
		},
	}
	results, err := scenario.RunAll(spec, core.Runner{}) // hdd + ssd, GOMAXPROCS workers
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, r := range results {
		_ = scenario.RenderBaselines(r).WriteASCII(os.Stdout)
		fmt.Println()
		_ = scenario.RenderGraph(r).WriteASCII(os.Stdout)
		fmt.Println()
		_ = scenario.RenderMatrix(r).WriteASCII(os.Stdout)
		fmt.Println()
	}
	_ = scenario.RenderSummary(results).WriteASCII(os.Stdout)

	// The matrix, not the δ-graph, is what answers "who should I co-schedule
	// with whom": read off the worst victim/aggressor pair directly.
	for _, r := range results {
		v, a, f := r.Matrix.Peak()
		fmt.Printf("\n%s: worst pair is %s suffering %.2fx next to %s\n",
			r.Backend, r.Matrix.Names[v], f, r.Matrix.Names[a])
	}
}
