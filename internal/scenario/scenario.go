// Package scenario is the declarative layer over the N-application
// experiment core: a JSON-serializable Spec names a platform (node/server
// counts, backend, sync mode, stripe size), an arbitrary list of
// applications (pattern, transfer size, queue depth, fixed start offset,
// targeted servers) and a δ grid, and Run turns it into a δ-graph plus a
// pairwise interference-factor matrix on a worker pool.
//
// The package also carries a registry of built-in scenarios beyond the
// paper's two-application campaigns — multi-app pile-ups, mixed
// read/write modes, elephant-and-mice asymmetry, staggered arrivals, and
// partitioned-versus-shared server placements — each exercising one
// interference mechanism of the paper on both HDD and SSD backends. A
// Spec may additionally carry a faults block (a deterministic fault
// timeline plus the client retry policy, internal/fault); CompareFaults
// runs such a scenario against a healthy twin and reports per-app
// IF-under-faults plus the availability ledger. See SCENARIOS.md at the
// repository root for the file format and a guided tour of every
// built-in.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pfs"
	"repro/internal/population"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/workload"
)

// App describes one application of a scenario. Sizes use friendly units
// (MiB blocks, KiB transfers, seconds/milliseconds) so that hand-written
// JSON stays readable; Build converts to the core's bytes and sim.Time.
type App struct {
	// Name labels the application ("A", "checkpoint", …). Empty picks the
	// positional default ("A", "B", "C", …).
	Name string `json:"name,omitempty"`
	// Procs is the number of processes (required, > 0).
	Procs int `json:"procs"`
	// PPN is processes per node; 0 uses the platform's cores per node.
	PPN int `json:"ppn,omitempty"`
	// Pattern is "contiguous" (default) or "strided".
	Pattern string `json:"pattern,omitempty"`
	// BlockMB is the per-process I/O volume in MiB (required, > 0).
	BlockMB int64 `json:"block_mb"`
	// TransferKB is the strided request size in KiB (required for strided).
	TransferKB int64 `json:"transfer_kb,omitempty"`
	// QD is the per-process queue depth (0/1 = blocking requests).
	QD int `json:"qd,omitempty"`
	// ThinkMS is a fixed client-side cost per request, in milliseconds.
	ThinkMS float64 `json:"think_ms,omitempty"`
	// Read makes the phase read instead of write.
	Read bool `json:"read,omitempty"`
	// TargetServers stripes this app's file over a server subset
	// (empty = all servers) — the paper's partitioning knob.
	TargetServers []int `json:"target_servers,omitempty"`
	// StripeKB overrides the platform stripe size for this app, in KiB.
	StripeKB int64 `json:"stripe_kb,omitempty"`
	// StartS is the app's fixed start offset in seconds, on top of which
	// the δ shift moves every application but the first (see core.DeltaSpec).
	StartS float64 `json:"start_s,omitempty"`

	// Phases turns the app into a multi-phase workload program (compute
	// think time, barriers, repeated I/O bursts — see workload.Program).
	// Mutually exclusive with the single-burst knobs above (pattern,
	// block_mb, transfer_kb, qd, think_ms, read), which then move into the
	// individual "io" phases.
	Phases []Phase `json:"phases,omitempty"`
	// Iterations repeats the phase list (0 = once). Only valid with phases.
	Iterations int `json:"iterations,omitempty"`
	// Seed seeds the app's deterministic jitter stream; 0 derives a
	// distinct per-app default. Only valid with phases.
	Seed uint64 `json:"seed,omitempty"`
}

// Phase is the declarative form of one workload-program step. Kind selects
// which knobs apply: "io" takes the single-burst knobs (pattern, block_mb,
// transfer_kb, qd, think_ms, read), "compute" takes compute_s and jitter_s
// (a fixed pause plus an exponential extra with that mean — a Poisson
// burst-arrival process), "barrier" takes none.
type Phase struct {
	Kind string `json:"kind"`

	// io phase knobs (see App for units and semantics).
	Pattern    string  `json:"pattern,omitempty"`
	BlockMB    int64   `json:"block_mb,omitempty"`
	TransferKB int64   `json:"transfer_kb,omitempty"`
	QD         int     `json:"qd,omitempty"`
	ThinkMS    float64 `json:"think_ms,omitempty"`
	Read       bool    `json:"read,omitempty"`

	// compute phase knobs, in seconds.
	ComputeS float64 `json:"compute_s,omitempty"`
	JitterS  float64 `json:"jitter_s,omitempty"`
}

// phaseKindNames are the valid Phase.Kind values.
var phaseKindNames = []string{"io", "compute", "barrier"}

// parsePhaseKind maps a Phase.Kind string to the workload kind.
func parsePhaseKind(s string) (workload.PhaseKind, error) {
	switch strings.ToLower(s) {
	case "io":
		return workload.PhaseIO, nil
	case "compute", "think":
		return workload.PhaseCompute, nil
	case "barrier":
		return workload.PhaseBarrier, nil
	}
	return 0, fmt.Errorf("unknown phase kind %q (valid: %s)", s, strings.Join(phaseKindNames, ", "))
}

// appName resolves app i's display name: its Name field, or the
// conventional core.AppName letter when unset. Validate, Build, and
// AppNames all label through here so renderers can never drift from the
// names the engine ran with.
func appName(a App, i int) string {
	if a.Name != "" {
		return a.Name
	}
	return core.AppName(i)
}

// AppNames returns the resolved display name of every app in s, in app
// order — the labels Build gives the engine.
func AppNames(s Spec) []string {
	names := make([]string, len(s.Apps))
	for i, a := range s.Apps {
		names[i] = appName(a, i)
	}
	return names
}

// Spec is one declarative scenario. The zero value of every platform field
// means "use the paper default" (cluster.Default), so a minimal scenario is
// just a name and an application list.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Nodes, CoresPerNode and Servers size the platform (0 = paper default).
	Nodes        int `json:"nodes,omitempty"`
	CoresPerNode int `json:"cores_per_node,omitempty"`
	Servers      int `json:"servers,omitempty"`

	// Backend pins the scenario to one backend ("hdd", "ssd", "ram",
	// "null"); empty runs the scenario on the standard axis (HDD and SSD).
	Backend string `json:"backend,omitempty"`
	// Sync is "on" (default), "off" or "null-aio".
	Sync string `json:"sync,omitempty"`
	// StripeKB is the file system stripe size in KiB (0 = default 64).
	StripeKB int64 `json:"stripe_kb,omitempty"`
	// SSDChannels > 1 selects the channel-parallel flash model when the
	// scenario runs on the SSD backend (see storage.SSDParams).
	SSDChannels int `json:"ssd_channels,omitempty"`

	// DeltaS is the δ grid in seconds (empty = {0}): at each point every
	// application but the first is shifted by δ on top of its start_s.
	DeltaS []float64 `json:"delta_s,omitempty"`

	// QoS enables a server-side QoS scheduler on every storage server
	// (nil = off, the un-mitigated PVFS baseline). For a trace scenario it
	// configures the replay platform (counterfactual what-if replay).
	QoS *QoS `json:"qos,omitempty"`

	// Trace turns the scenario into a trace replay: the workload comes
	// from a recorded trace file instead of an app list (see Replay).
	// Mutually exclusive with Apps and every platform/δ knob — the trace
	// header carries the recorded platform.
	Trace *TraceBlock `json:"trace,omitempty"`

	// Faults injects a deterministic fault timeline (server crashes,
	// degraded devices, link flaps) and switches the clients onto the
	// retrying RPC path (nil = the fault-free platform, bit-identical to a
	// build without the fault subsystem). Mutually exclusive with Trace — a
	// replay reproduces a recorded healthy run.
	Faults *FaultBlock `json:"faults,omitempty"`

	// Population stamps out a generated tenant population (seeded class
	// mix, Zipf volumes, arrival offsets — internal/population) instead of
	// a hand-written app list. Mutually exclusive with Apps, Trace, Faults
	// and the δ grid: a fleet is summarized by its single co-run plus
	// sampled pairs (RunFleet), not a δ sweep. Platform knobs and QoS still
	// apply.
	Population *population.Params `json:"population,omitempty"`

	Apps []App `json:"apps,omitempty"`
}

// TraceBlock configures a trace-replay scenario.
type TraceBlock struct {
	// Path is the trace file to replay (written by `scenarios -trace` or
	// trace.WriteFile).
	Path string `json:"path"`
}

// QoS is the declarative form of a server-side scheduler configuration
// (internal/qos). Scheduler is required; every other knob is optional and
// zero selects the scheduler's calibrated default.
type QoS struct {
	// Scheduler names the discipline: "fairshare", "tokenbucket",
	// "controller" (or "off").
	Scheduler string `json:"scheduler"`
	// FlowSlots overrides the server's concurrent-flow count while the
	// scheduler is active; InflightChunks is the per-application in-flight
	// chunk budget of the depth-advising schedulers.
	FlowSlots      int `json:"flow_slots,omitempty"`
	InflightChunks int `json:"inflight_chunks,omitempty"`
	// QuantumKB is the fairshare deficit-round-robin quantum, in KiB.
	QuantumKB int64 `json:"quantum_kb,omitempty"`
	// RateMBps / BurstMB configure the token buckets (tokenbucket: the hard
	// per-application cap; controller: the initial/maximum rate).
	RateMBps float64 `json:"rate_mbps,omitempty"`
	BurstMB  int64   `json:"burst_mb,omitempty"`
	// TickMS is the controller's feedback sampling interval, in ms.
	TickMS float64 `json:"tick_ms,omitempty"`
}

// Params compiles the block into scheduler parameters (zero knobs keep the
// kind's defaults; see qos.Defaults).
func (q *QoS) Params() (qos.Params, error) {
	if q == nil {
		return qos.Params{}, nil
	}
	// ParseKind maps "" to Off; requiring the field here keeps a forgotten
	// "scheduler" key from silently running the experiment unmitigated.
	if q.Scheduler == "" {
		return qos.Params{}, fmt.Errorf("scheduler is required (valid: %s)",
			strings.Join(qos.KindNames(), ", "))
	}
	kind, err := qos.ParseKind(q.Scheduler)
	if err != nil {
		return qos.Params{}, err
	}
	if err := sim.CheckMillis("tick_ms", q.TickMS); err != nil {
		return qos.Params{}, err
	}
	p := qos.Params{
		Kind:            kind,
		FlowSlots:       q.FlowSlots,
		InflightChunks:  q.InflightChunks,
		QuantumBytes:    q.QuantumKB << 10,
		RateBytesPerSec: q.RateMBps * 1e6,
		BurstBytes:      q.BurstMB << 20,
		Tick:            sim.Time(q.TickMS * float64(sim.Millisecond)),
	}
	if err := p.Validate(); err != nil {
		return qos.Params{}, err
	}
	return p, nil
}

// Size caps keep the friendly-unit knobs inside int64 byte arithmetic: a
// value past the cap would overflow the <<10 / <<20 conversion — a corrupt
// or adversarial file could even shift block or transfer sizes to exactly
// zero and crash the divisibility check with a division by zero — so
// Validate rejects it with a stable error instead. The limits are far
// beyond any meaningful scenario.
const (
	maxBlockMB    = 1 << 20 // 1 TiB per process
	maxTransferKB = 1 << 21 // 2 GiB per request
	maxStripeKB   = 1 << 21 // 2 GiB stripe
)

// patternNames are the valid App.Pattern values.
var patternNames = []string{"contiguous", "strided"}

// syncNames are the valid Spec.Sync values.
var syncNames = []string{"on", "off", "null-aio"}

// parsePattern maps an App.Pattern string to the workload kind.
func parsePattern(s string) (workload.Pattern, error) {
	switch strings.ToLower(s) {
	case "", "contiguous", "contig":
		return workload.Contiguous, nil
	case "strided":
		return workload.Strided, nil
	}
	return 0, fmt.Errorf("unknown pattern %q (valid: %s)", s, strings.Join(patternNames, ", "))
}

// parseSync maps a Spec.Sync string to the pfs mode.
func parseSync(s string) (pfs.SyncMode, error) {
	switch strings.ToLower(s) {
	case "", "on":
		return pfs.SyncOn, nil
	case "off":
		return pfs.SyncOff, nil
	case "null-aio", "nullaio":
		return pfs.NullAIO, nil
	}
	return 0, fmt.Errorf("unknown sync mode %q (valid: %s)", s, strings.Join(syncNames, ", "))
}

// Validate checks the scenario for structural errors. Every error names the
// scenario and, where relevant, the offending application, so a bad file in
// a batch points straight at its line.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if s.Trace != nil {
		if s.Trace.Path == "" {
			return fmt.Errorf("scenario %q: trace: missing path", s.Name)
		}
		if len(s.Apps) > 0 || len(s.DeltaS) > 0 || s.Backend != "" || s.Sync != "" ||
			s.Nodes != 0 || s.CoresPerNode != 0 || s.Servers != 0 ||
			s.StripeKB != 0 || s.SSDChannels != 0 || s.Faults != nil || s.Population != nil {
			return fmt.Errorf("scenario %q: a trace scenario replays the recorded platform; "+
				"apps, faults, population and platform/δ knobs must be absent (qos is the one allowed override)", s.Name)
		}
		if s.QoS != nil {
			if _, err := s.QoS.Params(); err != nil {
				return fmt.Errorf("scenario %q: qos: %w", s.Name, err)
			}
		}
		return nil
	}
	if s.Population != nil {
		// A fleet is summarized by its single co-run plus sampled pairs;
		// hand-written apps, fault timelines and δ sweeps do not compose
		// with a generated population (platform knobs and qos do).
		if len(s.Apps) > 0 || s.Faults != nil || len(s.DeltaS) > 0 {
			return fmt.Errorf("scenario %q: a population scenario generates its apps; "+
				"apps, faults and delta_s must be absent (platform knobs and qos still apply)", s.Name)
		}
		if err := s.Population.Validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	} else if len(s.Apps) == 0 {
		return fmt.Errorf("scenario %q: needs at least one app", s.Name)
	}
	if s.Backend != "" {
		if _, err := cluster.ParseBackend(s.Backend); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if _, err := parseSync(s.Sync); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if s.Nodes < 0 || s.CoresPerNode < 0 || s.Servers < 0 || s.StripeKB < 0 || s.SSDChannels < 0 {
		return fmt.Errorf("scenario %q: negative platform parameter", s.Name)
	}
	if s.StripeKB > maxStripeKB {
		return fmt.Errorf("scenario %q: stripe_kb %d exceeds the %d KiB cap", s.Name, s.StripeKB, maxStripeKB)
	}
	for i, d := range s.DeltaS {
		if err := sim.CheckSeconds("delta_s", d, -sim.MaxSeconds); err != nil {
			return fmt.Errorf("scenario %q: %w (point %d)", s.Name, err, i)
		}
	}
	if s.QoS != nil {
		if _, err := s.QoS.Params(); err != nil {
			return fmt.Errorf("scenario %q: qos: %w", s.Name, err)
		}
	}
	servers := s.Servers
	if servers == 0 {
		servers = cluster.Default().Servers
	}
	if s.Faults != nil {
		if err := s.Faults.validate(servers); err != nil {
			return fmt.Errorf("scenario %q: faults: %w", s.Name, err)
		}
	}
	for i, a := range s.Apps {
		label := appName(a, i)
		if a.Procs <= 0 {
			return fmt.Errorf("scenario %q app %q: procs must be > 0, got %d", s.Name, label, a.Procs)
		}
		if len(a.Phases) > 0 {
			if a.Pattern != "" || a.BlockMB != 0 || a.TransferKB != 0 ||
				a.QD != 0 || a.ThinkMS != 0 || a.Read {
				return fmt.Errorf("scenario %q app %q: phases and the single-burst knobs "+
					"(pattern, block_mb, transfer_kb, qd, think_ms, read) are mutually exclusive; "+
					"move them into the io phases", s.Name, label)
			}
			if a.Iterations < 0 {
				return fmt.Errorf("scenario %q app %q: iterations must be >= 0, got %d",
					s.Name, label, a.Iterations)
			}
			for pi, ph := range a.Phases {
				if err := ph.validate(); err != nil {
					return fmt.Errorf("scenario %q app %q phase %d: %w", s.Name, label, pi, err)
				}
			}
		} else {
			if a.Iterations != 0 || a.Seed != 0 {
				return fmt.Errorf("scenario %q app %q: iterations/seed apply only to phases", s.Name, label)
			}
			if a.BlockMB <= 0 {
				return fmt.Errorf("scenario %q app %q: block_mb must be > 0, got %d", s.Name, label, a.BlockMB)
			}
			if a.BlockMB > maxBlockMB || a.TransferKB > maxTransferKB {
				return fmt.Errorf("scenario %q app %q: block_mb/transfer_kb exceed the %d MiB / %d KiB caps",
					s.Name, label, maxBlockMB, maxTransferKB)
			}
			pat, err := parsePattern(a.Pattern)
			if err != nil {
				return fmt.Errorf("scenario %q app %q: %w", s.Name, label, err)
			}
			if pat == workload.Strided {
				if a.TransferKB <= 0 {
					return fmt.Errorf("scenario %q app %q: strided pattern needs transfer_kb > 0", s.Name, label)
				}
				if (a.BlockMB<<20)%(a.TransferKB<<10) != 0 {
					return fmt.Errorf("scenario %q app %q: block_mb %d not divisible by transfer_kb %d",
						s.Name, label, a.BlockMB, a.TransferKB)
				}
			}
		}
		if a.PPN < 0 || a.QD < 0 || a.ThinkMS < 0 || a.StripeKB < 0 || a.StartS < 0 {
			return fmt.Errorf("scenario %q app %q: negative parameter", s.Name, label)
		}
		if err := sim.CheckSeconds("start_s", a.StartS, 0); err != nil {
			return fmt.Errorf("scenario %q app %q: %w", s.Name, label, err)
		}
		if err := sim.CheckMillis("think_ms", a.ThinkMS); err != nil {
			return fmt.Errorf("scenario %q app %q: %w", s.Name, label, err)
		}
		if a.StripeKB > maxStripeKB {
			return fmt.Errorf("scenario %q app %q: stripe_kb %d exceeds the %d KiB cap",
				s.Name, label, a.StripeKB, maxStripeKB)
		}
		for _, t := range a.TargetServers {
			if t < 0 || t >= servers {
				return fmt.Errorf("scenario %q app %q: target server %d outside the %d-server platform",
					s.Name, label, t, servers)
			}
		}
	}
	// A full placement check (apps fitting the node range) needs the built
	// config; Build performs it via core's AppSpec.Validate.
	return nil
}

// validate checks one phase: its kind must be known and exactly the knobs
// of that kind may be set.
func (ph Phase) validate() error {
	if ph.Kind == "" {
		return fmt.Errorf("phase needs a kind (valid: %s)", strings.Join(phaseKindNames, ", "))
	}
	kind, err := parsePhaseKind(ph.Kind)
	if err != nil {
		return err
	}
	ioKnobs := ph.Pattern != "" || ph.BlockMB != 0 || ph.TransferKB != 0 ||
		ph.QD != 0 || ph.ThinkMS != 0 || ph.Read
	switch kind {
	case workload.PhaseIO:
		if ph.ComputeS != 0 || ph.JitterS != 0 {
			return fmt.Errorf("io phase with compute_s/jitter_s")
		}
		if ph.BlockMB <= 0 {
			return fmt.Errorf("io phase needs block_mb > 0, got %d", ph.BlockMB)
		}
		if ph.BlockMB > maxBlockMB || ph.TransferKB > maxTransferKB {
			return fmt.Errorf("io phase block_mb/transfer_kb exceed the %d MiB / %d KiB caps",
				maxBlockMB, maxTransferKB)
		}
		pat, err := parsePattern(ph.Pattern)
		if err != nil {
			return err
		}
		if pat == workload.Strided {
			if ph.TransferKB <= 0 {
				return fmt.Errorf("strided io phase needs transfer_kb > 0")
			}
			if (ph.BlockMB<<20)%(ph.TransferKB<<10) != 0 {
				return fmt.Errorf("block_mb %d not divisible by transfer_kb %d", ph.BlockMB, ph.TransferKB)
			}
		}
		if ph.QD < 0 {
			return fmt.Errorf("negative parameter")
		}
		if err := sim.CheckMillis("think_ms", ph.ThinkMS); err != nil {
			return err
		}
	case workload.PhaseCompute:
		if ioKnobs {
			return fmt.Errorf("compute phase with io knobs")
		}
		if err := sim.CheckSeconds("compute_s", ph.ComputeS, 0); err != nil {
			return err
		}
		if err := sim.CheckSeconds("jitter_s", ph.JitterS, 0); err != nil {
			return err
		}
	case workload.PhaseBarrier:
		if ioKnobs || ph.ComputeS != 0 || ph.JitterS != 0 {
			return fmt.Errorf("barrier phase carries no knobs")
		}
	}
	return nil
}

// compile turns one validated phase into its workload form.
func (ph Phase) compile() workload.Phase {
	kind, _ := parsePhaseKind(ph.Kind) // validated
	switch kind {
	case workload.PhaseIO:
		pat, _ := parsePattern(ph.Pattern) // validated
		return workload.Phase{Kind: workload.PhaseIO, IO: workload.Spec{
			Pattern:      pat,
			BlockBytes:   ph.BlockMB << 20,
			TransferSize: ph.TransferKB << 10,
			QD:           ph.QD,
			ThinkTime:    int64(ph.ThinkMS * float64(sim.Millisecond)),
			Read:         ph.Read,
		}}
	case workload.PhaseCompute:
		return workload.Phase{Kind: workload.PhaseCompute,
			Compute:    int64(ph.ComputeS * float64(sim.Second)),
			JitterMean: int64(ph.JitterS * float64(sim.Second))}
	}
	return workload.Phase{Kind: workload.PhaseBarrier}
}

// program compiles an app's phase list into a workload.Program. The default
// seed is a distinct per-position splitmix64 increment multiple, so unseeded
// co-running apps decorrelate and the choice is stable across runs (the seed
// must not depend on which subset of apps a pairwise co-run selects).
func (a App) program(i int) *workload.Program {
	seed := a.Seed
	if seed == 0 {
		seed = uint64(i+1) * 0x9E3779B97F4A7C15
	}
	prog := &workload.Program{Iterations: a.Iterations, Seed: seed}
	for _, ph := range a.Phases {
		prog.Phases = append(prog.Phases, ph.compile())
	}
	return prog
}

// Backends returns the backend axis this scenario runs on: the pinned one
// if Backend is set, otherwise HDD and SSD.
func (s Spec) Backends() ([]cluster.BackendKind, error) {
	if s.Backend == "" {
		return []cluster.BackendKind{cluster.HDD, cluster.SSD}, nil
	}
	b, err := cluster.ParseBackend(s.Backend)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return []cluster.BackendKind{b}, nil
}

// Build compiles the scenario for one backend into a platform config and a
// core.DeltaSpec. Applications are packed onto consecutive disjoint node
// ranges in list order; when Nodes is 0 the platform is sized to exactly
// fit them.
func (s Spec) Build(backend cluster.BackendKind) (cluster.Config, core.DeltaSpec, error) {
	if err := s.Validate(); err != nil {
		return cluster.Config{}, core.DeltaSpec{}, err
	}
	if s.Trace != nil {
		return cluster.Config{}, core.DeltaSpec{},
			fmt.Errorf("scenario %q: a trace scenario replays a recording; use Replay", s.Name)
	}
	if s.Population != nil {
		// Stamp out the generated tenants and compile the expanded spec;
		// the expansion is deterministic, so building twice is free of
		// surprises (RunFleet keeps the tenant list alongside).
		es, _, err := ExpandPopulation(s)
		if err != nil {
			return cluster.Config{}, core.DeltaSpec{}, err
		}
		return es.Build(backend)
	}
	cfg := cluster.Default()
	cfg.Backend = backend
	if s.Nodes > 0 {
		cfg.ComputeNodes = s.Nodes
	}
	if s.CoresPerNode > 0 {
		cfg.CoresPerNode = s.CoresPerNode
	}
	if s.Servers > 0 {
		cfg.Servers = s.Servers
	}
	if s.StripeKB > 0 {
		cfg.StripeSize = s.StripeKB << 10
	}
	if s.SSDChannels > 0 {
		cfg.SSD.Channels = s.SSDChannels
	}
	mode, err := parseSync(s.Sync)
	if err != nil {
		return cluster.Config{}, core.DeltaSpec{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	cfg.Sync = mode
	if s.QoS != nil {
		qp, err := s.QoS.Params()
		if err != nil {
			return cluster.Config{}, core.DeltaSpec{}, fmt.Errorf("scenario %q: qos: %w", s.Name, err)
		}
		cfg.Srv.QoS = qp
	}
	if s.Faults != nil {
		cfg.Faults = s.Faults.plan()
	}

	spec := core.DeltaSpec{Cfg: cfg}
	node := 0
	for i, a := range s.Apps {
		ppn := a.PPN
		if ppn == 0 {
			ppn = cfg.CoresPerNode
		}
		app := core.AppSpec{
			Name:          appName(a, i),
			Procs:         a.Procs,
			FirstNode:     node,
			ProcsPerNode:  ppn,
			TargetServers: a.TargetServers,
			Stripe:        a.StripeKB << 10,
		}
		if len(a.Phases) > 0 {
			app.Program = a.program(i)
		} else {
			pat, _ := parsePattern(a.Pattern) // validated above
			app.Workload = workload.Spec{
				Pattern:      pat,
				BlockBytes:   a.BlockMB << 20,
				TransferSize: a.TransferKB << 10,
				QD:           a.QD,
				ThinkTime:    int64(a.ThinkMS * float64(sim.Millisecond)),
				Read:         a.Read,
			}
		}
		node += (a.Procs + ppn - 1) / ppn
		spec.Apps = append(spec.Apps, app)
		spec.StartOffsets = append(spec.StartOffsets, sim.Seconds(a.StartS))
	}
	if s.Nodes == 0 {
		cfg.ComputeNodes = node
		spec.Cfg = cfg
	}
	for _, a := range spec.Apps {
		if err := a.Validate(spec.Cfg); err != nil {
			return cluster.Config{}, core.DeltaSpec{}, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if len(s.DeltaS) == 0 {
		spec.Deltas = []sim.Time{0}
	} else {
		for _, d := range s.DeltaS {
			spec.Deltas = append(spec.Deltas, sim.Seconds(d))
		}
	}
	return spec.Cfg, spec, nil
}

// Smoke returns a shrunken copy for CI smoke runs and golden tests:
// process counts divided by 8, per-process volume by 16, the δ grid
// reduced to at most three points (the two extremes plus zero), and the
// time axes — δ values and fixed start offsets — divided by the combined
// load shrink (8×16). Completion times scale roughly with per-server load,
// so scaling the time axes by the same factor preserves the arrival
// geometry: bursts that overlap at full size still overlap at smoke size,
// and every interference mechanism exercises the same code path, only
// smaller.
func (s Spec) Smoke() Spec {
	// procs/8 × volume/16 shrinks per-server load — and with it burst
	// durations — by ~128, so δ and start_s shrink by the same factor.
	const timeDiv = 8 * 16
	out := s
	// A population scenario shrinks through its generator parameters: same
	// tenant count and class mix (a smoke fleet IS the fleet, only
	// smaller), volumes /16, per-class procs /8 (min 1), time axes /128.
	if s.Population != nil {
		p := s.Population.Shrink(16, 8, timeDiv)
		out.Population = &p
		return out
	}
	out.Apps = make([]App, len(s.Apps))
	for i, a := range s.Apps {
		a.Procs = max(2, a.Procs/8)
		a.StartS /= timeDiv
		if len(a.Phases) > 0 {
			// Programs shrink phase by phase: burst volumes like the
			// single-burst path, compute pauses and jitter means with the
			// time axes.
			phases := make([]Phase, len(a.Phases))
			for pi, ph := range a.Phases {
				ph.BlockMB = shrinkBlock(ph.BlockMB)
				ph.TransferKB = fixTransfer(ph.Pattern, ph.BlockMB, ph.TransferKB)
				ph.ComputeS /= timeDiv
				ph.JitterS /= timeDiv
				phases[pi] = ph
			}
			a.Phases = phases
		} else {
			a.BlockMB = max(1, a.BlockMB/16)
			a.TransferKB = fixTransfer(a.Pattern, a.BlockMB, a.TransferKB)
		}
		out.Apps[i] = a
	}
	ds := s.DeltaS
	if n := len(ds); n > 3 {
		cut := []float64{ds[0]}
		for _, d := range ds {
			if d == 0 && ds[0] != 0 {
				cut = append(cut, 0)
				break
			}
		}
		if last := ds[n-1]; last != cut[len(cut)-1] {
			cut = append(cut, last)
		}
		ds = cut
	}
	out.DeltaS = make([]float64, len(ds))
	for i, d := range ds {
		out.DeltaS[i] = d / timeDiv
	}
	// The fault timeline rides the same time axis as δ and start_s — an
	// event that lands mid-burst at full scale lands at the same fraction
	// of the shrunken burst — while the RPC-scale retry knobs shrink only
	// with the per-process volume (the 16 above): per-request latency does
	// not shrink with the process count, and a deadline scaled below it
	// would turn the smoke run into a divergent retry storm.
	if s.Faults != nil {
		out.Faults = s.Faults.smoke(timeDiv, 16)
	}
	// Nodes: re-derive from the shrunken apps when the original pinned a
	// node count (auto-sized scenarios re-fit in Build anyway).
	if s.Nodes > 0 {
		out.Nodes = 0
	}
	return out
}

// shrinkBlock divides an io volume by the smoke factor; zero (a non-io
// phase) stays zero.
func shrinkBlock(mb int64) int64 {
	if mb <= 0 {
		return mb
	}
	return max(1, mb/16)
}

// fixTransfer keeps strided divisibility after shrinking: when the shrunken
// block no longer divides by the transfer size, fall back to one request
// per block.
func fixTransfer(pattern string, blockMB, transferKB int64) int64 {
	if pat, err := parsePattern(pattern); err == nil && pat == workload.Strided &&
		transferKB > 0 && (blockMB<<20)%(transferKB<<10) != 0 {
		return blockMB << 10
	}
	return transferKB
}

// Parse decodes one scenario from JSON, rejecting unknown fields (a typo'd
// knob should fail loudly, not silently run the default).
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Load reads and parses one scenario file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
