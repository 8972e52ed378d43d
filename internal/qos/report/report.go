// Package report renders mitigation-sweep results (core.Sweep) as tables:
// the per-scheme Pareto view — interference removed versus aggregate
// throughput paid — that whatifd serves as each report's pareto_text
// (internal/whatif); internal/scenario's golden_mitigation.txt pins its
// rows. It builds on the repository-wide table writer (internal/report).
package report

import (
	"repro/internal/core"
	basereport "repro/internal/report"
)

// RenderPareto tabulates one sweep's Pareto rows: per scheme, the peak
// interference factor, its reduction against the baseline arm, the
// unfairness, the aggregate throughput and its cost. A scheme strictly
// better than another on both the dIF and tp_cost columns dominates it;
// the interesting schedulers are the non-dominated (Pareto) set.
func RenderPareto(title string, sweep *core.Sweep) *basereport.Table {
	t := basereport.New(title,
		"scheduler", "peak_IF", "dIF_pct", "unfairness", "agg_MBps", "tp_cost_pct")
	for _, r := range sweep.Pareto() {
		t.Add(r.Name, r.PeakIF, r.IFReductionPct, r.Unfairness, r.AggBps/1e6, r.TPCostPct)
	}
	return t
}

// RenderSweepGraphs tabulates every arm's δ-graph side by side: one row
// per (scheme, δ) with per-application elapsed and IF columns — the raw
// data behind a Pareto row, for when a summary needs explaining.
func RenderSweepGraphs(title string, sweep *core.Sweep, names []string) *basereport.Table {
	cols := []string{"scheduler", "delta_s"}
	for _, n := range names {
		cols = append(cols, n+"_s", "IF_"+n)
	}
	t := basereport.New(title, cols...)
	for i, g := range sweep.Graphs {
		for _, p := range g.Points {
			row := []interface{}{sweep.Schemes[i].Name, p.Delta.Seconds()}
			for a := range p.Elapsed {
				row = append(row, p.Elapsed[a].Seconds(), p.IF[a])
			}
			t.Add(row...)
		}
	}
	return t
}
