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

// cacheKey derives a report's or a replay's content address: a sha256
// over the entry kind and the length-prefixed identity parts. Length
// prefixes keep distinct part lists from colliding by concatenation.
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
// share. The bool result reports whether the whole report came from the
// cache.
func (s *Server) Compute(q *Query) (*Report, bool, error) {
	if (q.Spec == nil) == (len(q.Trace) == 0) {
		return nil, false, badRequest(fmt.Errorf("whatif: a query needs exactly one of an inline scenario or an uploaded trace"))
	}
	if q.Spec != nil {
		return s.computeScenario(q)
	}
	return s.computeTrace(q)
}

// cached resolves one entry through c, computing it with build on a miss.
// An entry's size is its JSON encoding, a faithful proxy for the heap it
// retains, since every entry is plain data.
func cached[T any](c *Cache, key string, build func() (T, error)) (T, bool, error) {
	v, hit, err := c.Do(key, func() (any, int64, error) {
		v, err := build()
		if err != nil {
			return nil, 0, err
		}
		return v, int64(len(mustJSON(v))), nil
	})
	if err != nil {
		var zero T
		return zero, false, err
	}
	return v.(T), hit, nil
}

// simMemo resolves the simulations a session's core.Runner executes through
// the server's cache, one entry per job.
type simMemo struct{ c *Cache }

// Resolve implements core.Memo. Its only error is errPanicked, the panic of
// the run a coalesced caller waited on, and it re-raises that as a panic so
// the caller's Runner carries it to the session.
func (m simMemo) Resolve(key string, run func() core.RunResult) core.RunResult {
	r, _, err := cached(m.c, key, func() (core.RunResult, error) { return run(), nil })
	if err != nil {
		panic(err)
	}
	return r
}

// armKinds lists a session's arms: the un-mitigated baseline, then the
// query's mitigations in order.
func armKinds(q *Query) []qos.Kind { return append([]qos.Kind{qos.Off}, q.Arms...) }

// armNames spells a query's arm list for its report key.
func armNames(q *Query) []byte {
	var b []byte
	for _, k := range q.Arms {
		b = append(append(b, k.String()...), ',')
	}
	return b
}

// computeScenario serves an inline scenario. The report is one cache entry,
// keyed by the spec, the platform it builds and the arm list; on a miss
// every arm, the baseline included, runs as a full scenario sweep on one
// pool whose simulations resolve through the cache too.
func (s *Server) computeScenario(q *Query) (*Report, bool, error) {
	spec := *q.Spec
	if q.Smoke {
		spec = spec.Smoke()
	}
	spec.QoS = nil // the arms define every scheme
	cfg, _, err := spec.Build(q.Backend)
	if err != nil {
		return nil, false, badRequest(err)
	}
	key := cacheKey("scenario", mustJSON(spec), mustJSON(cfg), []byte(q.Backend.String()), armNames(q))
	return cached(s.cache, key, func() (*Report, error) { return s.runScenario(spec, q) })
}

// runScenario runs and renders every arm of a scenario session. Each arm
// writes its own slot, so the report is byte-identical at any parallelism
// and whichever simulations came from the cache.
func (s *Server) runScenario(spec scenario.Spec, q *Query) (*Report, error) {
	kinds := armKinds(q)
	results := make([]*scenario.Result, len(kinds))
	errs := make([]error, len(kinds))
	pool := core.Runner{Parallelism: s.cfg.Jobs, Memo: simMemo{s.cache}}
	pool.ForEach(len(kinds), func(i int) {
		as := spec
		as.QoS = &scenario.QoS{Scheduler: kinds[i].String()}
		results[i], errs[i] = scenario.Run(as, q.Backend, pool)
	})
	for _, err := range errs {
		if err != nil {
			return nil, badRequest(err)
		}
	}

	rep := &Report{
		Kind: "scenario", Name: spec.Name, Backend: q.Backend.String(),
		Apps: results[0].Matrix.Names,
	}
	sweep := &core.Sweep{}
	for i, k := range kinds {
		a, err := scenarioArm(k.String(), results[i])
		if err != nil {
			return nil, err
		}
		rep.Arms = append(rep.Arms, a)
		sweep.Schemes = append(sweep.Schemes, core.Scheme{Name: k.String(), QoS: qos.Params{Kind: k}})
		sweep.Graphs = append(sweep.Graphs, results[i].Graph)
	}
	for _, r := range sweep.Pareto() {
		rep.Pareto = append(rep.Pareto, ParetoRow{
			Scheme: r.Name, PeakIF: r.PeakIF, DIFPct: r.IFReductionPct,
			Unfairness: r.Unfairness, AggMBps: r.AggBps / 1e6, TPCostPct: r.TPCostPct,
		})
	}
	var err error
	rep.ParetoText, err = renderText(qosreport.RenderPareto(
		fmt.Sprintf("what-if Pareto: %s on %s", spec.Name, q.Backend), sweep))
	return rep, err
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

// computeTrace serves an uploaded recording. The report is one cache
// entry, keyed by the upload's digest, the display label and the arm list:
// the label lands only in rendered titles, so it is part of the report's
// identity but not of a replay's.
func (s *Server) computeTrace(q *Query) (*Report, bool, error) {
	label := q.Label
	if label == "" {
		label = "uploaded.trace"
	}
	digest := sha256.Sum256(q.Trace)
	key := cacheKey("trace", digest[:], []byte(label), armNames(q))
	return cached(s.cache, key, func() (*Report, error) { return s.runTrace(q, label, digest[:]) })
}

// runTrace replays the recording once per arm and renders the report. Arm
// 0 replays the recorded platform and must round-trip bit for bit, per the
// trace package's determinism contract, whether its replay came from the
// cache or not; each other arm replays under one QoS scheduler.
func (s *Server) runTrace(q *Query, label string, digest []byte) (*Report, error) {
	t, err := trace.Read(bytes.NewReader(q.Trace))
	if err != nil {
		return nil, badRequest(err)
	}
	if t.Header.Cfg.Faults != nil {
		// Like fault scenarios: a replay under a fault plan stalls and
		// re-issues a request until it lands, and nothing bounds that
		// loop, so a crafted plan could pin a worker for good.
		return nil, badRequest(fmt.Errorf("whatif: %s: fault recordings are not served yet", label))
	}
	kinds := armKinds(q)
	reps := make([]*trace.ReplayResult, len(kinds))
	errs := make([]error, len(kinds))
	core.Runner{Parallelism: s.cfg.Jobs}.ForEach(len(kinds), func(i int) {
		cfg := t.Header.Cfg
		if i > 0 {
			cfg.Srv.QoS = qos.Params{Kind: kinds[i]}
		}
		reps[i], errs[i] = s.replay(t, digest, cfg)
	})
	if errs[0] != nil {
		return nil, badRequest(errs[0])
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	base := reps[0]
	if !base.Identical() {
		// A faithful recording replays its own platform bit for bit, so
		// the upload is at fault, not the service.
		return nil, badRequest(fmt.Errorf("whatif: baseline replay of %s diverged from the recording", label))
	}

	rep := &Report{Kind: "trace", Name: label, Apps: make([]string, len(base.Apps))}
	for i, a := range base.Apps {
		rep.Apps[i] = a.Name
	}
	pt := basereport.New(fmt.Sprintf("what-if Pareto: %s (counterfactual replay)", label),
		"scheduler", "peak_IF", "dIF_pct", "agg_MBps", "tp_cost_pct")
	for i, k := range kinds {
		a, row, err := traceArm(label, k.String(), i == 0, reps[i], base, t)
		if err != nil {
			return nil, err
		}
		rep.Arms = append(rep.Arms, a)
		rep.Pareto = append(rep.Pareto, row)
		pt.Add(row.Scheme, row.PeakIF, row.DIFPct, row.AggMBps, row.TPCostPct)
	}
	rep.ParetoText, err = renderText(pt)
	return rep, err
}

// replay resolves one replay of t on cfg through the cache, keyed by the
// upload's digest and cfg. The entry keeps only what rendering reads: the
// replayed and the recorded windows, not the replay's own recording.
func (s *Server) replay(t *trace.Trace, digest []byte, cfg cluster.Config) (*trace.ReplayResult, error) {
	rep, _, err := cached(s.cache, cacheKey("replay", digest, mustJSON(cfg)), func() (*trace.ReplayResult, error) {
		r, err := trace.ReplayOn(t, cfg)
		if err != nil {
			return nil, err
		}
		return &trace.ReplayResult{Apps: r.Apps, Recorded: r.Recorded}, nil
	})
	if errors.Is(err, errPanicked) {
		panic(err) // as the run that panicked does, for the session to fail alike
	}
	return rep, err
}

// traceArm builds one trace arm and its Pareto row: per-app recorded
// against replayed windows and the interference factor against the
// baseline replay base. The baseline arm (verify) is the verification
// replay: its IF is 1 by definition and it carries the round-trip verdict.
func traceArm(label, scheme string, verify bool, rep, base *trace.ReplayResult, t *trace.Trace) (Arm, ParetoRow, error) {
	cf := scheme
	if verify {
		cf = ""
	}
	text, err := ReplayText(label, cf, rep, t, true)
	if err != nil {
		return Arm{}, ParetoRow{}, err
	}
	a := Arm{Scheme: scheme, Text: text}
	var peak, agg, baseAgg float64
	for i, app := range rep.Apps {
		ta := TraceApp{
			Name:      app.Name,
			RecordedS: rep.Recorded[i].Elapsed().Seconds(),
			ReplayedS: app.Elapsed.Seconds(),
		}
		switch be := base.Apps[i].Elapsed; {
		case verify:
			ta.IF = 1
		case be > 0:
			ta.IF = float64(app.Elapsed) / float64(be)
		}
		peak = max(peak, ta.IF)
		agg += app.Throughput
		baseAgg += base.Apps[i].Throughput
		a.TraceApps = append(a.TraceApps, ta)
	}
	row := ParetoRow{Scheme: scheme, PeakIF: peak, DIFPct: (1 - peak) * 100, AggMBps: agg / 1e6}
	if verify {
		identical := true
		a.Identical = &identical
		row.PeakIF, row.DIFPct = 1, 0
	}
	if baseAgg > 0 {
		row.TPCostPct = (baseAgg - agg) / baseAgg * 100
	}
	return a, row, nil
}
