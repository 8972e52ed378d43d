// Package trace is the request-level trace subsystem: recorded runs (the
// pfs file system keeps one record per request while recording is on —
// issue time, app, rank, server, offset, bytes, observed queue depth,
// latency, plus barrier entries from the workload-program layer — with no
// allocation beyond the reserved slice), a compact sorted on-disk format, a
// Darshan-style per-application summarizer, and a replayer that drives a
// freshly built cluster from a recorded trace as a first-class workload
// source.
//
// # Replay determinism contract
//
// The simulator is deterministic, so a replay that reproduces the recorded
// run's event structure reproduces its timing bit for bit. The replayer
// achieves that by building the platform in the experiment layer's order —
// same construction order, same spawn order, same phase-timer barriers —
// and then running the experiment layer's own issue loop: each rank's
// records are split at its barrier records, every segment goes through
// core.Burst at the app's queue depth with a step that sleeps from the
// current wake-up point to the record's absolute timestamp, and every
// barrier through core.BarrierWait. Because the recorded run only ever
// schedules one pause between consecutive operations of a rank (the
// discipline core.runProgram keeps), the replayed sleep is scheduled at
// the same instant, with the same delay, from the same event as the
// original pause, and every downstream decision — issue-jitter
// draws, server queue order, TCP dynamics, and under a fault plan the
// retries and stall-and-resume of the pfs client — replays identically.
//
// The contract's fine print: blocking applications (queue depth <= 1, all
// the built-in scenarios) replay exactly, as do pipelined (QD > 1)
// single-burst applications and pipelined programs whose I/O phases are
// separated by barrier phases (the barrier records delimit each burst's
// semaphore window). A pipelined program with back-to-back unbarriered I/O
// phases replays with one merged semaphore window per barrier-delimited
// segment, which preserves per-rank request order but may shift timings.
// A recording in which some request ran out of retries (failures > 0)
// replays, but not necessarily bit for bit: the failed attempt and its
// re-issue are two separate records, so the replay issues that request
// once more than the recorded run did.
// Replaying on a modified platform (ReplayOn — a different backend, a QoS
// scheduler enabled) is deliberately counterfactual: timings then answer
// "what would this recorded workload have seen", and the bit-identity
// guarantee does not apply.
package trace

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// Record is one request-level trace record (see pfs.IORecord for the field
// contract). Records in a Trace are sorted by issue time — the file system
// appends them in simulation order, which is already chronological.
type Record = pfs.IORecord

// AppInfo describes one application of a recorded run: everything the
// replayer needs to rebuild the application (placement, file layout, queue
// depth, start offset) plus the recorded outcome (the collective phase
// window) that round-trip verification compares against.
type AppInfo struct {
	Name          string   `json:"name"`
	Procs         int      `json:"procs"`
	FirstNode     int      `json:"first_node"`
	PPN           int      `json:"ppn"`
	TargetServers []int    `json:"target_servers,omitempty"`
	Stripe        int64    `json:"stripe,omitempty"`
	QD            int      `json:"qd,omitempty"`
	Start         sim.Time `json:"start,omitempty"`
	// PhaseStart/PhaseEnd are the recorded collective I/O phase window —
	// the per-application completion times a replay must reproduce.
	PhaseStart sim.Time `json:"phase_start"`
	PhaseEnd   sim.Time `json:"phase_end"`
	// Bytes is the application's total traffic (all processes).
	Bytes int64 `json:"bytes"`
}

// Elapsed returns the recorded collective phase duration.
func (a AppInfo) Elapsed() sim.Time { return a.PhaseEnd - a.PhaseStart }

// Header is the trace preamble: the full platform configuration (which
// round-trips through JSON exactly — every parameter struct is plain
// exported data) and the application table.
type Header struct {
	Cfg  cluster.Config `json:"cfg"`
	Apps []AppInfo      `json:"apps"`
}

// Trace is one recorded run: header plus the time-sorted record stream.
type Trace struct {
	Header  Header
	Records []Record
}

// AppNames returns the application names in app-ID order.
func (t *Trace) AppNames() []string {
	names := make([]string, len(t.Header.Apps))
	for i, a := range t.Header.Apps {
		names[i] = a.Name
	}
	return names
}

// RecordRun executes one simulation of the given applications with
// recording on and returns the trace alongside the run's results. It is
// core.Prepare + Run with the file system recording; to record the δ=0
// co-run of a δ-graph spec, pass spec.Cfg and spec.AppsAt(0).
func RecordRun(cfg cluster.Config, apps []core.AppSpec) (*Trace, core.RunResult) {
	x := core.Prepare(cfg, apps) // validates the specs (panics like Prepare)
	// The request count is known up front, so the whole run records without
	// a single allocation on the record path.
	n := 0
	for _, a := range x.Apps {
		n += a.Spec.Procs * (a.Program.Requests() + a.Program.Barriers())
	}
	x.Platform.FS.Record(n)
	res := x.Run()
	t := &Trace{Header: Header{Cfg: cfg}, Records: x.Platform.FS.Records()}
	for i, a := range apps {
		t.Header.Apps = append(t.Header.Apps, AppInfo{
			Name:          a.Name,
			Procs:         a.Procs,
			FirstNode:     a.FirstNode,
			PPN:           a.ProcsPerNode,
			TargetServers: a.TargetServers,
			Stripe:        a.Stripe,
			QD:            x.Apps[i].Program.MaxQD(),
			Start:         a.Start,
			PhaseStart:    res.Apps[i].Start,
			PhaseEnd:      res.Apps[i].End,
			Bytes:         res.Apps[i].Bytes,
		})
	}
	return t, res
}

// Validate checks the trace for structural consistency: a present header
// whose platform validates, every app placed on that platform's nodes and
// servers, and every record's app/rank within the header's application
// table, its op a write, read or barrier, its extent non-negative,
// representable and at most maxBytes long, its time and latency within
// [0, sim.MaxSeconds] seconds, and its time no earlier than the previous
// record's (the file system appends records in issue order).
func (t *Trace) Validate() error {
	if len(t.Header.Apps) == 0 {
		return fmt.Errorf("trace: header has no applications")
	}
	cfg := t.Header.Cfg
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("trace: header platform: %w", err)
	}
	for i, a := range t.Header.Apps {
		if a.Procs <= 0 || a.PPN <= 0 {
			return fmt.Errorf("trace: app %d (%q): procs/ppn must be positive", i, a.Name)
		}
		lastNode := a.FirstNode + (a.Procs-1)/a.PPN
		if a.FirstNode < 0 || lastNode >= cfg.ComputeNodes {
			return fmt.Errorf("trace: app %q spans nodes %d..%d beyond the %d-node platform",
				a.Name, a.FirstNode, lastNode, cfg.ComputeNodes)
		}
		for _, s := range a.TargetServers {
			if s < 0 || s >= cfg.Servers {
				return fmt.Errorf("trace: app %q targets server %d outside the %d-server platform",
					a.Name, s, cfg.Servers)
			}
		}
	}
	for i, r := range t.Records {
		if int(r.App) < 0 || int(r.App) >= len(t.Header.Apps) {
			return fmt.Errorf("trace: record %d: app %d outside the %d-app table", i, r.App, len(t.Header.Apps))
		}
		if int(r.Rank) < 0 || int(r.Rank) >= t.Header.Apps[r.App].Procs {
			return fmt.Errorf("trace: record %d: rank %d outside app %d's %d procs",
				i, r.Rank, r.App, t.Header.Apps[r.App].Procs)
		}
		switch {
		case r.Op > pfs.OpBarrier:
			return fmt.Errorf("trace: record %d: unknown op %d", i, r.Op)
		case r.Off < 0 || r.Bytes < 0 || r.Bytes > maxBytes || r.Off > math.MaxInt64-r.Bytes:
			return fmt.Errorf("trace: record %d: extent [%d, +%d) is negative, longer than %d bytes or overflows",
				i, r.Off, r.Bytes, maxBytes)
		case r.Time < 0 || r.Time > maxTime || r.Latency < 0 || r.Latency > maxTime:
			return fmt.Errorf("trace: record %d: time %v or latency %v outside [0, %g] seconds",
				i, r.Time, r.Latency, sim.MaxSeconds)
		case i > 0 && r.Time < t.Records[i-1].Time:
			return fmt.Errorf("trace: record %d: time %v is before record %d's %v; records must be in issue order",
				i, r.Time, i-1, t.Records[i-1].Time)
		}
	}
	return nil
}

// Record bounds Validate enforces. maxBytes is the largest request a
// scenario spec can ask for (2 GiB); the replay plans a request's chunks
// in one slice, so a longer record could ask for more memory than any
// host has.
const (
	maxTime  = sim.Time(sim.MaxSeconds) * sim.Second
	maxBytes = 2 << 30
)
