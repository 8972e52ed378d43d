// Package whatif wraps the trace replayer and the QoS mitigation sweeps
// in a long-running what-if service: an HTTP/JSON API (see Server) accepts
// an uploaded IOTRACE1 recording or an inline scenario spec, runs the
// un-mitigated baseline plus a requested set of QoS mitigation arms
// concurrently through the existing core.Runner worker pool, and returns
// per-app summaries, IF vectors and a Pareto report.
//
// Determinism is the product: a session's numbers — and the rendered
// tables embedded in its JSON — are byte-identical to the equivalent
// `cmd/scenarios -qos/-replay -tsv` CLI runs, whether the report or any
// simulation under it was computed cold or served from the cache. The
// service therefore reuses the exact composition the CLI prints (this
// file), a content-addressed cache (Cache) of whole reports and of every
// simulation a session runs, so a repeated what-if runs nothing and an
// overlapping one runs only the simulations new to it, and a bounded
// session queue with explicit backpressure (HTTP 429) so load cannot
// exhaust memory.
package whatif

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// EmitTables is report.Emit, kept for the benchmark module's callers.
func EmitTables(w io.Writer, tsv bool, tables ...*report.Table) error {
	return report.Emit(w, tsv, tables...)
}

// ScenarioRunText renders one scenario result the way cmd/scenarios prints
// it: alone baselines, δ-graph and pairwise IF matrix.
func ScenarioRunText(res *scenario.Result, tsv bool) (string, error) {
	var b strings.Builder
	err := report.Emit(&b, tsv,
		scenario.RenderBaselines(res),
		scenario.RenderGraph(res),
		scenario.RenderMatrix(res))
	return b.String(), err
}

// ScenarioSummaryText renders the one-line-per-result summary table
// cmd/scenarios ends every invocation with.
func ScenarioSummaryText(all []*scenario.Result, tsv bool) (string, error) {
	var b strings.Builder
	err := report.Emit(&b, tsv, scenario.RenderSummary(all))
	return b.String(), err
}

// ReplayText renders a trace replay the way cmd/scenarios -replay prints
// it: the Darshan-style summary of the recording, the recorded-vs-replayed
// round-trip table, then the verdict line. label is the display title (the
// CLI's trace file path). counterfactualQoS names the scheduler of a
// counterfactual replay ("" = a verification replay on the recorded
// platform). On a diverged verification replay no verdict line is printed
// — the caller reports the divergence as an error, as the CLI does.
func ReplayText(label, counterfactualQoS string, rep *trace.ReplayResult, t *trace.Trace, tsv bool) (string, error) {
	var b strings.Builder
	if err := report.Emit(&b, tsv,
		trace.RenderSummary(fmt.Sprintf("%s: Darshan-style per-app summary", label), trace.Summarize(t)),
		trace.RenderRoundTrip(fmt.Sprintf("%s: recorded vs replayed completions", label), rep)); err != nil {
		return "", err
	}
	switch {
	case counterfactualQoS != "":
		fmt.Fprintf(&b, "counterfactual replay under qos=%s: divergence from the recording is the result\n",
			counterfactualQoS)
	case rep.Identical():
		fmt.Fprintf(&b, "replay of %s reproduced every app's completion window bit-for-bit\n", label)
	}
	return b.String(), nil
}
