package scenario

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/trace"
)

// Record executes the scenario's δ=0 co-run — the canonical point every
// δ-graph contains — on one backend with request recording on, and
// returns the trace alongside the run's results.
func Record(s Spec, backend cluster.BackendKind) (*trace.Trace, core.RunResult, error) {
	_, spec, err := s.Build(backend)
	if err != nil {
		return nil, core.RunResult{}, err
	}
	t, res := trace.RecordRun(spec.Cfg, spec.AppsAt(0))
	return t, res, nil
}

// Replay executes a trace scenario: load the recording named by the spec's
// trace block and replay it — on the recorded platform (bit-identical per
// the trace package's determinism contract), or, when the spec carries a
// qos block, on the recorded platform with that scheduler enabled (the
// counterfactual "what if this recorded workload had run mitigated" view).
func Replay(s Spec) (*trace.ReplayResult, *trace.Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	if s.Trace == nil {
		return nil, nil, fmt.Errorf("scenario %q: not a trace scenario (no trace block)", s.Name)
	}
	t, err := trace.ReadFile(s.Trace.Path)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	cfg := t.Header.Cfg
	if s.QoS != nil {
		qp, err := s.QoS.Params()
		if err != nil {
			return nil, nil, fmt.Errorf("scenario %q: qos: %w", s.Name, err)
		}
		cfg.Srv.QoS = qp
	}
	rep, err := trace.ReplayOn(t, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return rep, t, nil
}
