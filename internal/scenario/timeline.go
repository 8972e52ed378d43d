package scenario

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

// RunTimeline executes the scenario's δ=0 co-run — the same canonical
// point Record traces — with the observability layer attached: periodic
// per-app × per-server samples plus request spans (internal/obs). Trace
// scenarios replay a recording and have no co-run to observe.
func RunTimeline(s Spec, backend cluster.BackendKind, ocfg obs.Config) (core.RunResult, error) {
	if s.Trace != nil {
		return core.RunResult{}, fmt.Errorf("scenario %q: a trace scenario replays a recording; -timeline needs a co-run", s.Name)
	}
	_, spec, err := s.Build(backend)
	if err != nil {
		return core.RunResult{}, err
	}
	x := core.Prepare(spec.Cfg, spec.AppsAt(0))
	x.Observe(ocfg)
	return x.Run(), nil
}

// RenderTimelineRun renders an observed co-run: the per-app completion
// table followed by every timeline table (series and span breakdown).
func RenderTimelineRun(name string, backend cluster.BackendKind, res core.RunResult) []*report.Table {
	title := fmt.Sprintf("%s on %s", name, backend)
	t := report.New(title+" — co-run completions (δ=0)",
		"app", "start_s", "elapsed_s", "MB", "MBps")
	for _, a := range res.Apps {
		t.Add(a.Name, a.Start.Seconds(), a.Elapsed.Seconds(),
			float64(a.Bytes)/1e6, a.Throughput/1e6)
	}
	tables := []*report.Table{t}
	if res.Timeline != nil {
		tables = append(tables, obs.RenderTimeline(title, res.Timeline)...)
	}
	return tables
}

// TimelineText renders an observed co-run to the byte stream the CLI
// prints (report.Emit's) — the string the timeline golden pins.
func TimelineText(name string, backend cluster.BackendKind, res core.RunResult, tsv bool) (string, error) {
	var b strings.Builder
	err := report.Emit(&b, tsv, RenderTimelineRun(name, backend, res)...)
	return b.String(), err
}
