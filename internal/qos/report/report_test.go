package report

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// sweep builds a tiny hand-made two-arm sweep: the baseline and a scheme
// that halves the victim's interference at a small throughput cost.
func sweep() *core.Sweep {
	point := func(ifB float64, tp float64) core.DeltaPoint {
		return core.DeltaPoint{
			Start:      []sim.Time{0, sim.Second},
			Elapsed:    []sim.Time{sim.Second, 2 * sim.Second},
			IF:         []float64{1.1, ifB},
			Throughput: []float64{tp, tp / 2},
		}
	}
	return &core.Sweep{
		Schemes: []core.Scheme{{Name: "off"}, {Name: "fairshare"}},
		Graphs: []*core.DeltaGraph{
			{Alone: []sim.Time{sim.Second, sim.Second}, Points: []core.DeltaPoint{point(3, 300e6)}},
			{Alone: []sim.Time{sim.Second, sim.Second}, Points: []core.DeltaPoint{point(1.5, 270e6)}},
		},
	}
}

func TestRenderPareto(t *testing.T) {
	tab := RenderPareto("pareto", sweep())
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var b strings.Builder
	if err := tab.WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// The fairshare arm halves the peak (3 -> 1.5): a 50% reduction at a
	// 10% aggregate cost.
	if !strings.Contains(out, "fairshare\t1.5\t50\t") {
		t.Fatalf("fairshare row wrong:\n%s", out)
	}
	if !strings.Contains(out, "off\t3\t0\t") {
		t.Fatalf("baseline row wrong:\n%s", out)
	}
}

func TestRenderSweepGraphs(t *testing.T) {
	tab := RenderSweepGraphs("graphs", sweep(), []string{"A", "B"})
	if len(tab.Rows) != 2 { // one δ point per arm
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if got := len(tab.Cols); got != 2+2*2 {
		t.Fatalf("cols = %d", got)
	}
}
