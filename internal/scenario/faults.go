package scenario

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

// FaultBlock is the declarative form of a fault plan (internal/fault): a
// timeline of injected events plus the client retry policy that rides out
// the outages. Its presence — even with an empty event list — installs the
// retry policy, so every client request arms reply deadlines; absence keeps
// the fault subsystem entirely out of the build, bit-identical to a
// pre-fault platform.
//
// Times use the same friendly units as the rest of the spec (seconds for
// the timeline, milliseconds for the RPC-scale retry knobs). Smoke divides
// every one of them by the load shrink so faults land at the same phase of
// a shrunken burst as they do at full scale.
type FaultBlock struct {
	// Events is the injection timeline, in any order (the engine orders by
	// time; crash→restart and down→up pairing is validated).
	Events []FaultEvent `json:"events,omitempty"`

	// DeadlineMS is the per-attempt RPC deadline in milliseconds; 0 keeps
	// the calibrated default (see fault.DefaultRetryPolicy).
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
	// BackoffMS and BackoffMaxMS bound the capped exponential resend
	// backoff, in milliseconds; 0 keeps the defaults.
	BackoffMS    float64 `json:"backoff_ms,omitempty"`
	BackoffMaxMS float64 `json:"backoff_max_ms,omitempty"`
	// Retries is the per-request resend cap; 0 keeps the default.
	Retries int `json:"retries,omitempty"`
	// RetryBudget is the per-application retry budget: 0 keeps the default,
	// negative is unlimited.
	RetryBudget int64 `json:"retry_budget,omitempty"`
	// ResumeMS is the stall before a request that exhausted its retries is
	// re-issued, in milliseconds; 0 keeps the default.
	ResumeMS float64 `json:"resume_ms,omitempty"`
}

// FaultEvent is one timeline entry. Kind selects which knobs apply:
// "device-degrade" takes throughput_factor (required, >= 1) and latency_ms;
// "loss-burst" takes duration_s (required, > 0); every other kind
// ("server-crash", "server-restart", "device-restore", "link-down",
// "link-up") takes only at_s and server.
type FaultEvent struct {
	Kind   string  `json:"kind"`
	Server int     `json:"server"`
	AtS    float64 `json:"at_s"`

	// Factor multiplies per-byte service time while degraded (>= 1;
	// device-degrade only).
	Factor float64 `json:"throughput_factor,omitempty"`
	// LatencyMS adds fixed per-operation latency while degraded
	// (device-degrade only).
	LatencyMS float64 `json:"latency_ms,omitempty"`
	// DurationS is the loss window length (loss-burst only).
	DurationS float64 `json:"duration_s,omitempty"`
}

// validate checks one event's knob discipline: the kind must parse and
// exactly the knobs of that kind may be set. Range and pairing checks are
// delegated to the compiled fault.Plan.
func (ev FaultEvent) validate() error {
	if ev.Kind == "" {
		return fmt.Errorf("event needs a kind (valid: %s)", strings.Join(fault.KindNames(), ", "))
	}
	k, err := fault.ParseKind(ev.Kind)
	if err != nil {
		return err
	}
	if ev.AtS < 0 {
		return fmt.Errorf("at_s must be >= 0, got %g", ev.AtS)
	}
	switch k {
	case fault.DeviceDegrade:
		if ev.Factor < 1 {
			return fmt.Errorf("device-degrade needs throughput_factor >= 1, got %g", ev.Factor)
		}
		if ev.LatencyMS < 0 {
			return fmt.Errorf("negative latency_ms")
		}
		if ev.DurationS != 0 {
			return fmt.Errorf("duration_s applies only to loss-burst")
		}
	case fault.LossBurst:
		if ev.DurationS <= 0 {
			return fmt.Errorf("loss-burst needs duration_s > 0, got %g", ev.DurationS)
		}
		if ev.Factor != 0 || ev.LatencyMS != 0 {
			return fmt.Errorf("throughput_factor/latency_ms apply only to device-degrade")
		}
	default:
		if ev.Factor != 0 || ev.LatencyMS != 0 || ev.DurationS != 0 {
			return fmt.Errorf("%s takes only at_s and server", ev.Kind)
		}
	}
	if err := sim.CheckSeconds("at_s", ev.AtS, 0); err != nil {
		return err
	}
	if err := sim.CheckSeconds("duration_s", ev.DurationS, 0); err != nil {
		return err
	}
	return sim.CheckMillis("latency_ms", ev.LatencyMS)
}

// compile turns one validated event into its fault form.
func (ev FaultEvent) compile() fault.Event {
	k, _ := fault.ParseKind(ev.Kind) // validated
	return fault.Event{
		At:       sim.Seconds(ev.AtS),
		Kind:     k,
		Server:   ev.Server,
		Factor:   ev.Factor,
		Latency:  sim.Time(ev.LatencyMS * float64(sim.Millisecond)),
		Duration: sim.Seconds(ev.DurationS),
	}
}

// plan compiles the block into a fault.Plan (zero retry knobs keep the
// calibrated defaults — see fault.RetryPolicy.WithDefaults, applied when
// the platform installs the plan).
func (fb *FaultBlock) plan() *fault.Plan {
	p := &fault.Plan{Retry: fault.RetryPolicy{
		Deadline:   sim.Time(fb.DeadlineMS * float64(sim.Millisecond)),
		Backoff:    sim.Time(fb.BackoffMS * float64(sim.Millisecond)),
		BackoffMax: sim.Time(fb.BackoffMaxMS * float64(sim.Millisecond)),
		MaxRetries: fb.Retries,
		Budget:     fb.RetryBudget,
		Resume:     sim.Time(fb.ResumeMS * float64(sim.Millisecond)),
	}}
	for _, ev := range fb.Events {
		p.Events = append(p.Events, ev.compile())
	}
	return p
}

// validate checks the block against a platform of `servers` storage
// servers: per-event knob discipline here, then pairing, ordering and
// range checks through the compiled plan.
func (fb *FaultBlock) validate(servers int) error {
	if fb.Retries < 0 {
		return fmt.Errorf("negative retry parameter")
	}
	for _, k := range []struct {
		name string
		v    float64
	}{{"deadline_ms", fb.DeadlineMS}, {"backoff_ms", fb.BackoffMS}, {"backoff_max_ms", fb.BackoffMaxMS}, {"resume_ms", fb.ResumeMS}} {
		if err := sim.CheckMillis(k.name, k.v); err != nil {
			return err
		}
	}
	for i, ev := range fb.Events {
		if err := ev.validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return fb.plan().Validate(servers)
}

// CompareFaults runs a fault scenario's δ=0 co-run — the one Run, Record
// and RunTimeline simulate — twice on one backend, as two jobs on pool:
// once with the fault plan stripped (the healthy twin) and once as given
// (see core.Runner.RunFaultComparison). The scenario must carry a faults
// block.
func CompareFaults(s Spec, backend cluster.BackendKind, pool core.Runner) (core.FaultComparison, error) {
	cfg, spec, err := s.Build(backend)
	if err != nil {
		return core.FaultComparison{}, err
	}
	if cfg.Faults == nil {
		return core.FaultComparison{}, fmt.Errorf("scenario %q: no faults block to compare", s.Name)
	}
	return pool.RunFaultComparison(cfg, spec.AppsAt(0)), nil
}

// smoke returns a copy scaled for a shrunken run. The injection timeline
// (at_s, duration_s) tracks aggregate load — burst durations shrink by
// timelineDiv, so the events shrink with them to land at the same phase of
// the burst. The RPC-scale knobs (deadline, backoff, resume, per-op
// latency) track PER-REQUEST latency, which shrinks only with the request
// volume (requestDiv), not with the process count — fixed costs like seeks
// and RTOs do not shrink at all. Scaling the deadline by the full load
// shrink would push it below a single request's service time and every
// attempt would time out: resends amplify queue load, which stretches
// service latency, which times out the resends — a retry storm that never
// converges. requestDiv keeps the deadline comfortably above per-request
// latency at smoke scale.
func (fb *FaultBlock) smoke(timelineDiv, requestDiv float64) *FaultBlock {
	out := *fb
	out.Events = make([]FaultEvent, len(fb.Events))
	for i, ev := range fb.Events {
		ev.AtS /= timelineDiv
		ev.DurationS /= timelineDiv
		ev.LatencyMS /= requestDiv
		out.Events[i] = ev
	}
	out.DeadlineMS /= requestDiv
	out.BackoffMS /= requestDiv
	out.BackoffMaxMS /= requestDiv
	out.ResumeMS /= requestDiv
	return &out
}
