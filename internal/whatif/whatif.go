package whatif

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/qos"
	qosreport "repro/internal/qos/report"
	basereport "repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Query is one validated what-if session: an inline scenario spec OR an
// uploaded IOTRACE1 recording, plus the mitigation arms to sweep against
// the always-present un-mitigated baseline (arm 0, scheduler "off").
type Query struct {
	// Spec is the inline scenario (scenario kind); nil for trace queries.
	// The spec must not carry qos/trace/faults/population blocks — the
	// arms define the schemes, and the other subsystems have their own
	// render paths.
	Spec *scenario.Spec
	// Trace is the raw IOTRACE1 recording (trace kind); nil for scenario
	// queries. The replay platform comes from the trace header.
	Trace []byte
	// Label is the display title of a trace query — the CLI's trace file
	// path — so responses stay byte-identical to `scenarios -replay`.
	Label string
	// Backend selects the single backend a scenario query runs on
	// (trace queries replay the recorded platform).
	Backend cluster.BackendKind
	// Smoke shrinks the scenario to the CI smoke grid before running.
	Smoke bool
	// Arms are the mitigation schemes to sweep; never contains Off.
	Arms []qos.Kind
}

// Report is the deterministic JSON document one session produces. Every
// embedded Text field is byte-identical to the stdout of the equivalent
// `cmd/scenarios -tsv` invocation, cold and cache-hit alike — the
// determinism contract the serve smoke test pins bit-for-bit. The body
// deliberately carries no cache or timing metadata (that would break the
// cold-vs-hit byte identity); cache status travels in the X-Whatif-Cache
// response header instead.
type Report struct {
	Kind    string `json:"kind"` // "scenario" or "trace"
	Name    string `json:"name"`
	Backend string `json:"backend,omitempty"` // scenario kind
	// Apps are the application display names, indexing every per-app slice.
	Apps []string `json:"apps"`
	// Arms[0] is the un-mitigated baseline ("off"); the rest follow the
	// query's arm order.
	Arms []Arm `json:"arms"`
	// Pareto summarizes every arm against the baseline arm.
	Pareto     []ParetoRow `json:"pareto"`
	ParetoText string      `json:"pareto_text"`
}

// Arm is one sweep arm: the rendered CLI-equivalent tables plus the
// structured numbers behind them.
type Arm struct {
	Scheme string `json:"scheme"`
	// Text is byte-identical to the stdout of the equivalent CLI run:
	// `scenarios -tsv -qos <scheme> …` for scenario arms,
	// `scenarios -tsv -replay <label> [-qos <scheme>]` for trace arms.
	Text string `json:"text"`

	// Scenario kind: alone baselines (seconds), δ-graph points and the
	// pairwise IF matrix.
	AloneS []float64   `json:"alone_s,omitempty"`
	Points []Point     `json:"points,omitempty"`
	Matrix [][]float64 `json:"matrix,omitempty"`

	// Trace kind: per-app recorded vs replayed windows; Identical reports
	// the bit-for-bit round trip (always true for the baseline arm,
	// meaningless for counterfactual arms where divergence is the result).
	TraceApps []TraceApp `json:"trace_apps,omitempty"`
	Identical *bool      `json:"identical,omitempty"`
}

// Point is one δ-graph sample of a scenario arm.
type Point struct {
	DeltaS   float64   `json:"delta_s"`
	ElapsedS []float64 `json:"elapsed_s"`
	IF       []float64 `json:"if"`
	Drops    int64     `json:"drops"`
	Timeouts int64     `json:"timeouts"`
	Seeks    int64     `json:"seeks"`
}

// TraceApp is one application of a trace arm: the recorded phase window
// against the arm's replayed one, and the arm's interference factor
// relative to the baseline replay (1 for the baseline itself).
type TraceApp struct {
	Name      string  `json:"name"`
	RecordedS float64 `json:"recorded_s"`
	ReplayedS float64 `json:"replayed_s"`
	IF        float64 `json:"if"`
}

// ParetoRow summarizes one arm against the baseline arm: interference
// removed versus aggregate throughput paid — the qos/report view.
// Unfairness applies to scenario arms only (δ-graph first-mover advantage)
// and is omitted for trace arms.
type ParetoRow struct {
	Scheme     string  `json:"scheme"`
	PeakIF     float64 `json:"peak_if"`
	DIFPct     float64 `json:"dif_pct"`
	Unfairness float64 `json:"unfairness,omitempty"`
	AggMBps    float64 `json:"agg_mbps"`
	TPCostPct  float64 `json:"tp_cost_pct"`
}

// BadRequestError marks errors caused by the request itself (a malformed
// spec or trace) rather than the service; handlers map it to HTTP 400.
type BadRequestError struct{ Err error }

func (e *BadRequestError) Error() string { return e.Err.Error() }
func (e *BadRequestError) Unwrap() error { return e.Err }

// badRequest wraps err as a client error.
func badRequest(err error) error { return &BadRequestError{Err: err} }

// IsBadRequest reports whether err is (or wraps) a client error.
func IsBadRequest(err error) bool {
	var b *BadRequestError
	return errors.As(err, &b)
}

// ParseArms resolves arm names to schedulers: empty selects every built-in
// mitigation ({fairshare, tokenbucket, controller}); "off" and duplicates
// are rejected — the un-mitigated baseline always runs as arm 0.
func ParseArms(names []string) ([]qos.Kind, error) {
	if len(names) == 0 {
		return []qos.Kind{qos.FairShare, qos.TokenBucket, qos.Controller}, nil
	}
	out := make([]qos.Kind, 0, len(names))
	seen := make(map[qos.Kind]bool, len(names))
	for _, n := range names {
		k, err := qos.ParseKind(n)
		if err != nil {
			return nil, err
		}
		if k == qos.Off {
			return nil, fmt.Errorf("arm %q: the un-mitigated baseline always runs as arm 0", n)
		}
		if seen[k] {
			return nil, fmt.Errorf("duplicate arm %q", n)
		}
		seen[k] = true
		out = append(out, k)
	}
	return out, nil
}

// cacheKey derives the content address of a baseline: a sha256 over the
// query kind and the length-prefixed identity parts (trace bytes or
// canonical spec JSON, the built cluster.Config, the display label).
// Length prefixes keep distinct part lists from colliding by
// concatenation.
func cacheKey(kind string, parts ...[]byte) string {
	h := sha256.New()
	io.WriteString(h, kind)
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mustJSON marshals plain exported data; the structs involved cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("whatif: marshal: %v", err))
	}
	return b
}

// renderText renders tables to the CLI's TSV byte stream.
func renderText(tables ...*basereport.Table) (string, error) {
	var b strings.Builder
	err := EmitTables(&b, true, tables...)
	return b.String(), err
}

// Compute executes one validated query synchronously, outside the session
// queue — the path the HTTP workers, benchmarks and embedding callers all
// share. The bool result reports whether the baseline came from the cache.
func (s *Server) Compute(q *Query) (*Report, bool, error) {
	if (q.Spec == nil) == (len(q.Trace) == 0) {
		return nil, false, badRequest(fmt.Errorf("whatif: a query needs exactly one of an inline scenario or an uploaded trace"))
	}
	if q.Spec != nil {
		return s.computeScenario(q)
	}
	return s.computeTrace(q)
}

// scenarioBaseline is the cached unit of a scenario query: the fully
// rendered baseline arm plus the δ-graph the Pareto rows measure against.
type scenarioBaseline struct {
	arm   Arm
	graph *core.DeltaGraph
	names []string
	size  int64
}

// computeScenario runs baseline + arms for an inline scenario. The
// baseline resolves through the cache (slot 0) while the mitigation arms
// run as full scenario sweeps; all slots share one Runner pool.
func (s *Server) computeScenario(q *Query) (*Report, bool, error) {
	spec := *q.Spec
	if q.Smoke {
		spec = spec.Smoke()
	}
	base := spec
	base.QoS = &scenario.QoS{Scheduler: qos.Off.String()}
	cfg, _, err := base.Build(q.Backend)
	if err != nil {
		return nil, false, badRequest(err)
	}
	key := cacheKey("scenario", mustJSON(base), mustJSON(cfg))
	pool := core.Runner{Parallelism: s.cfg.Jobs}

	armSpecs := make([]scenario.Spec, len(q.Arms))
	for i, k := range q.Arms {
		as := spec
		as.QoS = &scenario.QoS{Scheduler: k.String()}
		armSpecs[i] = as
	}
	results := make([]*scenario.Result, len(q.Arms))
	errs := make([]error, len(q.Arms)+1)
	var bl *scenarioBaseline
	var hit bool
	// Slot 0 resolves the baseline (cache or compute); slots 1.. run the
	// mitigation arms. Each slot writes its own index, so results are
	// byte-identical at any parallelism.
	outer := core.Runner{Parallelism: s.cfg.Jobs}
	outer.ForEach(len(q.Arms)+1, func(i int) {
		if i == 0 {
			v, h, err := s.cache.Do(key, func() (any, int64, error) {
				res, err := scenario.Run(base, q.Backend, pool)
				if err != nil {
					return nil, 0, badRequest(err)
				}
				b, err := newScenarioBaseline(res)
				if err != nil {
					return nil, 0, err
				}
				return b, b.size, nil
			})
			if err == nil {
				bl, hit = v.(*scenarioBaseline), h
			}
			errs[0] = err
			return
		}
		results[i-1], errs[i] = scenario.Run(armSpecs[i-1], q.Backend, pool)
	})
	for _, e := range errs {
		if e != nil {
			return nil, false, e
		}
	}

	schemes := []core.Scheme{{Name: qos.Off.String(), QoS: qos.Params{Kind: qos.Off}}}
	graphs := []*core.DeltaGraph{bl.graph}
	arms := []Arm{bl.arm}
	for i, k := range q.Arms {
		a, err := scenarioArm(k.String(), results[i])
		if err != nil {
			return nil, false, err
		}
		arms = append(arms, a)
		schemes = append(schemes, core.Scheme{Name: k.String(), QoS: qos.Params{Kind: k}})
		graphs = append(graphs, results[i].Graph)
	}
	sweep := &core.Sweep{Schemes: schemes, Graphs: graphs}
	rows := make([]ParetoRow, 0, len(schemes))
	for _, r := range sweep.Pareto() {
		rows = append(rows, ParetoRow{
			Scheme: r.Name, PeakIF: r.PeakIF, DIFPct: r.IFReductionPct,
			Unfairness: r.Unfairness, AggMBps: r.AggBps / 1e6, TPCostPct: r.TPCostPct,
		})
	}
	ptext, err := renderText(qosreport.RenderPareto(
		fmt.Sprintf("what-if Pareto: %s on %s", spec.Name, q.Backend), sweep))
	if err != nil {
		return nil, false, err
	}
	return &Report{
		Kind: "scenario", Name: spec.Name, Backend: q.Backend.String(),
		Apps: bl.names, Arms: arms, Pareto: rows, ParetoText: ptext,
	}, hit, nil
}

// newScenarioBaseline renders the baseline arm and sizes the cached unit
// (JSON encoding length — a faithful proxy for retained heap, since both
// the arm and the graph are plain data).
func newScenarioBaseline(res *scenario.Result) (*scenarioBaseline, error) {
	arm, err := scenarioArm(qos.Off.String(), res)
	if err != nil {
		return nil, err
	}
	return &scenarioBaseline{
		arm:   arm,
		graph: res.Graph,
		names: append([]string(nil), res.Matrix.Names...),
		size:  int64(len(mustJSON(arm)) + len(mustJSON(res.Graph))),
	}, nil
}

// scenarioArm builds one scenario arm: the CLI byte stream (per-run tables
// plus the invocation-level summary) and the structured numbers.
func scenarioArm(scheme string, res *scenario.Result) (Arm, error) {
	runText, err := ScenarioRunText(res, true)
	if err != nil {
		return Arm{}, err
	}
	sumText, err := ScenarioSummaryText([]*scenario.Result{res}, true)
	if err != nil {
		return Arm{}, err
	}
	a := Arm{
		Scheme: scheme,
		Text:   runText + sumText,
		AloneS: make([]float64, len(res.Graph.Alone)),
		Matrix: res.Matrix.Cell,
	}
	for i, t := range res.Graph.Alone {
		a.AloneS[i] = t.Seconds()
	}
	for _, p := range res.Graph.Points {
		pt := Point{
			DeltaS:   p.Delta.Seconds(),
			ElapsedS: make([]float64, len(p.Elapsed)),
			IF:       p.IF,
			Drops:    p.Diag.PortDrops,
			Timeouts: p.Diag.Timeouts,
			Seeks:    p.Diag.DeviceSeeks,
		}
		for i, e := range p.Elapsed {
			pt.ElapsedS[i] = e.Seconds()
		}
		a.Points = append(a.Points, pt)
	}
	return a, nil
}

// traceBaseline is the cached unit of a trace query: the rendered baseline
// arm plus the replayed elapsed vector and aggregate throughput the
// counterfactual arms measure against.
type traceBaseline struct {
	arm     Arm
	elapsed []sim.Time
	agg     float64
	names   []string
	size    int64
}

// computeTrace runs baseline + counterfactual arms for an uploaded
// recording: the baseline replays the recorded platform (and must
// round-trip bit-for-bit, per the trace package's determinism contract);
// each arm replays under one QoS scheduler.
func (s *Server) computeTrace(q *Query) (*Report, bool, error) {
	t, err := trace.Read(bytes.NewReader(q.Trace))
	if err != nil {
		return nil, false, badRequest(err)
	}
	label := q.Label
	if label == "" {
		label = "uploaded.trace"
	}
	cfg := t.Header.Cfg
	if cfg.Faults != nil {
		// Like fault scenarios: a replay under a fault plan stalls and
		// re-issues a request until it lands, and nothing bounds that
		// loop, so a crafted plan could pin a worker for good.
		return nil, false, badRequest(fmt.Errorf("whatif: %s: fault recordings are not served yet", label))
	}
	// The label lands in rendered table titles, so it is part of the
	// baseline's identity: same bytes under a different name recompute.
	key := cacheKey("trace", []byte(label), q.Trace, mustJSON(cfg))

	reps := make([]*trace.ReplayResult, len(q.Arms))
	errs := make([]error, len(q.Arms)+1)
	var bl *traceBaseline
	var hit bool
	outer := core.Runner{Parallelism: s.cfg.Jobs}
	outer.ForEach(len(q.Arms)+1, func(i int) {
		if i == 0 {
			v, h, err := s.cache.Do(key, func() (any, int64, error) {
				rep, err := trace.ReplayOn(t, cfg)
				if err != nil {
					return nil, 0, badRequest(err)
				}
				if !rep.Identical() {
					// A faithful recording replays its own platform bit for
					// bit, so the upload is at fault, not the service.
					return nil, 0, badRequest(fmt.Errorf("whatif: baseline replay of %s diverged from the recording", label))
				}
				return newTraceBaseline(label, rep, t)
			})
			if err == nil {
				bl, hit = v.(*traceBaseline), h
			}
			errs[0] = err
			return
		}
		c := cfg
		c.Srv.QoS = qos.Params{Kind: q.Arms[i-1]}
		reps[i-1], errs[i] = trace.ReplayOn(t, c)
	})
	for _, e := range errs {
		if e != nil {
			return nil, false, e
		}
	}

	arms := []Arm{bl.arm}
	rows := []ParetoRow{{Scheme: qos.Off.String(), PeakIF: 1, AggMBps: bl.agg / 1e6}}
	for i, k := range q.Arms {
		a, peak, agg, err := traceArm(label, k.String(), reps[i], t, bl)
		if err != nil {
			return nil, false, err
		}
		arms = append(arms, a)
		row := ParetoRow{Scheme: k.String(), PeakIF: peak, DIFPct: (1 - peak) * 100, AggMBps: agg / 1e6}
		if bl.agg > 0 {
			row.TPCostPct = (bl.agg - agg) / bl.agg * 100
		}
		rows = append(rows, row)
	}
	pt := basereport.New(fmt.Sprintf("what-if Pareto: %s (counterfactual replay)", label),
		"scheduler", "peak_IF", "dIF_pct", "agg_MBps", "tp_cost_pct")
	for _, r := range rows {
		pt.Add(r.Scheme, r.PeakIF, r.DIFPct, r.AggMBps, r.TPCostPct)
	}
	ptext, err := renderText(pt)
	if err != nil {
		return nil, false, err
	}
	return &Report{
		Kind: "trace", Name: label,
		Apps: bl.names, Arms: arms, Pareto: rows, ParetoText: ptext,
	}, hit, nil
}

// newTraceBaseline renders the verification-replay arm and captures the
// per-app elapsed vector the counterfactual arms divide by.
func newTraceBaseline(label string, rep *trace.ReplayResult, t *trace.Trace) (*traceBaseline, int64, error) {
	text, err := ReplayText(label, "", rep, t, true)
	if err != nil {
		return nil, 0, err
	}
	identical := true
	bl := &traceBaseline{
		arm:     Arm{Scheme: qos.Off.String(), Text: text, Identical: &identical},
		elapsed: make([]sim.Time, len(rep.Apps)),
		names:   make([]string, len(rep.Apps)),
	}
	for i, a := range rep.Apps {
		bl.elapsed[i] = a.Elapsed
		bl.agg += a.Throughput
		bl.names[i] = a.Name
		bl.arm.TraceApps = append(bl.arm.TraceApps, TraceApp{
			Name:      a.Name,
			RecordedS: rep.Recorded[i].Elapsed().Seconds(),
			ReplayedS: a.Elapsed.Seconds(),
			IF:        1,
		})
	}
	bl.size = int64(len(mustJSON(bl.arm))) + int64(16*len(bl.elapsed)) + 64
	return bl, bl.size, nil
}

// traceArm builds one counterfactual arm and its Pareto inputs (peak IF
// against the baseline replay, summed throughput).
func traceArm(label, scheme string, rep *trace.ReplayResult, t *trace.Trace, bl *traceBaseline) (Arm, float64, float64, error) {
	text, err := ReplayText(label, scheme, rep, t, true)
	if err != nil {
		return Arm{}, 0, 0, err
	}
	a := Arm{Scheme: scheme, Text: text}
	var peak, agg float64
	for i, app := range rep.Apps {
		ta := TraceApp{
			Name:      app.Name,
			RecordedS: rep.Recorded[i].Elapsed().Seconds(),
			ReplayedS: app.Elapsed.Seconds(),
		}
		if bl.elapsed[i] > 0 {
			ta.IF = float64(app.Elapsed) / float64(bl.elapsed[i])
		}
		if ta.IF > peak {
			peak = ta.IF
		}
		agg += app.Throughput
		a.TraceApps = append(a.TraceApps, ta)
	}
	return a, peak, agg, nil
}
