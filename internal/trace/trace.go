// Package trace is the request-level trace subsystem: a zero-allocation
// recorder that hooks the pfs client path (one record per request — issue
// time, app, rank, server, offset, bytes, observed queue depth, latency,
// plus barrier entries from the workload-program layer), a compact sorted
// on-disk format, a Darshan-style per-application summarizer, and a
// replayer that drives a freshly built cluster from a recorded trace as a
// first-class workload source.
//
// # Replay determinism contract
//
// The simulator is deterministic, so a replay that reproduces the recorded
// run's event structure reproduces its timing bit for bit. The replayer
// achieves that by mirroring the experiment layer exactly — same platform
// construction order, same spawn order, same phase-timer barriers — and
// then, per rank, sleeping from each wake-up point to the next record's
// absolute timestamp before reissuing it. Because the recorded run only
// ever schedules one pause between consecutive operations of a rank (the
// discipline core.runProgram and core.runBurst keep), the replayed sleep is
// scheduled at the same instant, with the same delay, from the same event
// as the original pause, and every downstream decision — issue-jitter
// draws, server queue order, TCP dynamics — replays identically.
//
// The contract's fine print: blocking applications (queue depth <= 1, all
// the built-in scenarios) replay exactly, as do pipelined (QD > 1)
// single-burst applications and pipelined programs whose I/O phases are
// separated by barrier phases (the barrier records delimit each burst's
// semaphore window). A pipelined program with back-to-back unbarriered I/O
// phases replays with one merged semaphore window per barrier-delimited
// segment, which preserves per-rank request order but may shift timings.
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
// contract). Records in a Trace are sorted by issue time — the recorder
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

// Recorder is the in-memory pfs.IOSink: it appends one record per request
// at issue and patches the latency in place at completion. The steady-state
// record path performs no allocation once the backing slice has grown (or
// been Reserved) to the run's request count.
type Recorder struct {
	e    *sim.Engine
	recs []Record
}

// NewRecorder returns a recorder reading timestamps from e.
func NewRecorder(e *sim.Engine) *Recorder { return &Recorder{e: e} }

// Reserve grows the backing slice to hold at least n records, so a run with
// a known request count records without any allocation at all.
func (r *Recorder) Reserve(n int) {
	if cap(r.recs)-len(r.recs) < n {
		grown := make([]Record, len(r.recs), len(r.recs)+n)
		copy(grown, r.recs)
		r.recs = grown
	}
}

// BeginRequest implements pfs.IOSink: append the issue-time record.
func (r *Recorder) BeginRequest(rec Record) int {
	r.recs = append(r.recs, rec)
	return len(r.recs) - 1
}

// EndRequest implements pfs.IOSink: patch the record's latency in place.
func (r *Recorder) EndRequest(idx int) {
	r.recs[idx].Latency = r.e.Now() - r.recs[idx].Time
}

// Len returns the number of records captured so far.
func (r *Recorder) Len() int { return len(r.recs) }

// Records returns the captured records (the recorder's backing slice).
func (r *Recorder) Records() []Record { return r.recs }

// RecordRun executes one simulation of the given applications with a
// recorder attached and returns the trace alongside the run's results. It
// is core.Prepare + Run with the pfs sink installed; to record the δ=0
// co-run of a δ-graph spec, pass spec.Cfg and spec.AppsAt(0).
func RecordRun(cfg cluster.Config, apps []core.AppSpec) (*Trace, core.RunResult) {
	x := core.Prepare(cfg, apps) // validates the specs (panics like Prepare)
	rec := NewRecorder(x.Platform.E)
	// The request count is known up front, so the whole run records without
	// a single allocation on the record path.
	n := 0
	for _, a := range apps {
		if a.Program != nil {
			n += a.Procs * (a.Program.Requests() + a.Program.Barriers())
		} else {
			n += a.Procs * a.Workload.Requests()
		}
	}
	rec.Reserve(n)
	x.Platform.FS.Sink = rec
	res := x.Run()
	t := &Trace{Header: Header{Cfg: cfg}, Records: rec.Records()}
	for i, a := range apps {
		t.Header.Apps = append(t.Header.Apps, AppInfo{
			Name:          a.Name,
			Procs:         a.Procs,
			FirstNode:     a.FirstNode,
			PPN:           a.ProcsPerNode,
			TargetServers: a.TargetServers,
			Stripe:        a.Stripe,
			QD:            appQD(a),
			Start:         a.Start,
			PhaseStart:    res.Apps[i].Start,
			PhaseEnd:      res.Apps[i].End,
			Bytes:         res.Apps[i].Bytes,
		})
	}
	return t, res
}

// appQD returns the queue depth the replayer must honor for one app.
func appQD(a core.AppSpec) int {
	if a.Program != nil {
		return a.Program.MaxQD()
	}
	return a.Workload.QD
}

// Validate checks the trace for structural consistency: a present header
// whose platform validates, every app placed on that platform's nodes and
// servers, and every record's app/rank within the header's application
// table, its op a write, read or barrier, its extent non-negative,
// representable and at most maxBytes long, and its time and latency
// within [0, sim.MaxSeconds] seconds.
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
