package scenario

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/workload"
)

// RenderBaselines tabulates the per-app alone completion vector of a result.
func RenderBaselines(r *Result) *report.Table {
	t := report.New(fmt.Sprintf("%s on %s: alone baselines", r.Spec.Name, r.Backend),
		"app", "procs", "pattern", "alone_s", "start_s")
	for i, a := range r.Spec.Apps {
		name := a.Name
		if name == "" {
			name = r.Matrix.Names[i]
		}
		t.Add(name, a.Procs, patternLabel(a), r.Graph.Alone[i].Seconds(), a.StartS)
	}
	return t
}

// patternLabel names an app's access pattern: its burst's, or for an app
// with phases the patterns of its io phases, each once in phase order,
// joined by "+" ("none" when no phase does I/O).
func patternLabel(a App) string {
	if len(a.Phases) == 0 {
		return a.IO.spec().Pattern.String()
	}
	var pats []string
	for _, ph := range a.Phases {
		if w := ph.compile(); w.Kind == workload.PhaseIO {
			if p := w.IO.Pattern.String(); !slices.Contains(pats, p) {
				pats = append(pats, p)
			}
		}
	}
	if len(pats) == 0 {
		return "none"
	}
	return strings.Join(pats, "+")
}

// RenderGraph tabulates the δ-graph: one row per δ, per-app elapsed and IF
// columns, plus the incast diagnostics.
func RenderGraph(r *Result) *report.Table {
	cols := []string{"delta_s"}
	for _, name := range r.Matrix.Names {
		cols = append(cols, name+"_s", "IF_"+name)
	}
	cols = append(cols, "drops", "timeouts", "seeks")
	t := report.New(fmt.Sprintf("%s on %s: delta-graph", r.Spec.Name, r.Backend), cols...)
	for _, p := range r.Graph.Points {
		row := []interface{}{p.Delta.Seconds()}
		for i := range p.Elapsed {
			row = append(row, p.Elapsed[i].Seconds(), p.IF[i])
		}
		row = append(row, p.Diag.PortDrops, p.Diag.Timeouts, p.Diag.DeviceSeeks)
		t.Add(row...)
	}
	return t
}

// RenderMatrix tabulates the pairwise IF matrix: row i, column j holds the
// interference factor of app i (the victim) co-running with app j (the
// aggressor) at δ=0; the diagonal is 1 by definition.
func RenderMatrix(r *Result) *report.Table {
	m := r.Matrix
	cols := append([]string{"victim \\ with"}, m.Names...)
	t := report.New(fmt.Sprintf("%s on %s: pairwise IF matrix", r.Spec.Name, r.Backend), cols...)
	for i, name := range m.Names {
		row := []interface{}{name}
		for j := range m.Names {
			row = append(row, m.Cell[i][j])
		}
		t.Add(row...)
	}
	return t
}

// RenderFaults tabulates a healthy-vs-faulted comparison: per-app elapsed
// under both arms with the IF-under-faults ratio, then one availability
// row summing the faulted run's ledger.
func RenderFaults(s Spec, backend fmt.Stringer, fc core.FaultComparison) *report.Table {
	t := report.New(fmt.Sprintf("%s on %s: healthy vs faulted (delta=0 co-run)", s.Name, backend),
		"app", "healthy_s", "faulted_s", "IF_faults")
	names := AppNames(s)
	for i := range fc.Faulted.Apps {
		t.Add(names[i], fc.Healthy.Apps[i].Elapsed.Seconds(),
			fc.Faulted.Apps[i].Elapsed.Seconds(), fc.IF(i))
	}
	return t
}

// RenderAvailability tabulates the faulted run's availability ledger.
func RenderAvailability(s Spec, backend fmt.Stringer, fc core.FaultComparison) *report.Table {
	av := fc.Faulted.Diag.Avail
	t := report.New(fmt.Sprintf("%s on %s: availability", s.Name, backend),
		"crashes", "downtime_s", "discarded_mb", "link_drops",
		"rpc_timeouts", "retries", "failures", "goodput_ratio")
	t.Add(av.Crashes, av.Downtime.Seconds(), float64(av.DiscardedBytes)/(1<<20),
		av.LinkDrops, av.RPCTimeouts, av.Retries, av.Failures, fc.GoodputRatio())
	return t
}

// RenderSummary tabulates one line per (scenario, backend) result: peak IF
// in the δ-graph, the worst pairwise victim/aggressor, and matrix asymmetry.
func RenderSummary(results []*Result) *report.Table {
	t := report.New("scenario summary",
		"scenario", "backend", "apps", "peak_IF", "unfairness", "worst_pair", "pair_IF", "asymmetry")
	for _, r := range results {
		vi, ai, f := r.Matrix.Peak()
		pair := "-"
		if r.Matrix.Dim() > 1 {
			pair = r.Matrix.Names[vi] + "<-" + r.Matrix.Names[ai]
		}
		t.Add(r.Spec.Name, r.Backend.String(), len(r.Spec.Apps),
			r.Graph.PeakIF(), r.Graph.Unfairness(), pair, f, r.Matrix.Asymmetry())
	}
	return t
}
