package trace

import (
	"fmt"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// ReplayResult is the outcome of replaying a trace: per-application results
// in the shape core produces, the trace the replay itself recorded (replays
// always re-record, so round-trip verification can compare record streams,
// not just endpoints), and the recorded baseline for comparison.
type ReplayResult struct {
	Apps []core.AppResult
	// Recorded are the original per-app phase windows from the input
	// trace's header, aligned with Apps.
	Recorded []AppInfo
	// Trace is the replay's own recording — on an unmodified platform it
	// must equal the input trace record for record.
	Trace *Trace
}

// Identical reports whether every application's replayed phase window
// matches the recorded one exactly — the round-trip bit-identity check.
func (r *ReplayResult) Identical() bool {
	for i, a := range r.Apps {
		if a.Start != r.Recorded[i].PhaseStart || a.End != r.Recorded[i].PhaseEnd {
			return false
		}
	}
	return true
}

// Replay re-executes the trace on the platform recorded in its header. Per
// the package's determinism contract the result is bit-identical to the
// recorded run for blocking and single-burst-pipelined applications.
func Replay(t *Trace) (*ReplayResult, error) {
	return ReplayOn(t, t.Header.Cfg)
}

// replayApp is one application being replayed.
type replayApp struct {
	info  AppInfo
	file  *pfs.File
	cls   []*pfs.Client
	timer *mpisim.PhaseTimer
	bar   *mpisim.Barrier
	// perRank[r] are the indices into the trace's record stream belonging
	// to rank r, in issue order.
	perRank [][]int32
}

// ReplayOn re-executes the trace on cfg — the header's platform by default
// (Replay), or a deliberately modified one (a different backend, a QoS
// scheduler enabled) for counterfactual what-if replays, where timings may
// of course diverge from the recording. cfg keeps the header's node and
// server counts: Validate checks the apps' placement against the header's
// platform.
//
// The preparation mirrors core.Prepare operation for operation (file,
// timer and client construction order fix server-local file IDs, client IDs
// and the jitter stream), and each rank issues through core's own burst
// loop and barrier helper (replayRank), so an unmodified-platform replay
// reproduces the recorded event structure exactly.
func ReplayOn(t *Trace, cfg cluster.Config) (*ReplayResult, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	pl := cluster.Build(cfg)
	pl.FS.Record(len(t.Records))

	apps := make([]*replayApp, len(t.Header.Apps))
	for ai, info := range t.Header.Apps {
		stripe := info.Stripe
		if stripe <= 0 {
			stripe = cfg.StripeSize
		}
		a := &replayApp{
			info:    info,
			file:    pl.FS.CreateFile(info.Name, info.TargetServers, stripe),
			timer:   mpisim.NewPhaseTimer(pl.E, info.Procs),
			bar:     mpisim.NewBarrier(info.Procs),
			perRank: make([][]int32, info.Procs),
		}
		for i := 0; i < info.Procs; i++ {
			node := info.FirstNode + i/info.PPN
			cl := pl.FS.NewClient(pl.Nodes[node], ai)
			cl.Rank = i
			a.cls = append(a.cls, cl)
		}
		apps[ai] = a
	}
	for i := range t.Records {
		r := &t.Records[i]
		a := apps[r.App]
		a.perRank[r.Rank] = append(a.perRank[r.Rank], int32(i))
	}

	for _, a := range apps {
		a := a
		for rank := 0; rank < a.info.Procs; rank++ {
			rank := rank
			cl := a.cls[rank]
			pl.E.Spawn(a.info.Name+"/"+strconv.Itoa(rank), func(p *sim.Proc) {
				if a.info.Start > 0 {
					p.Sleep(a.info.Start)
				}
				a.timer.Enter(p)
				replayRank(p, t, pl.FS, a, cl, a.perRank[rank])
				// A program may end in a compute phase, which leaves no
				// record to pace to; sleeping out the recorded phase end
				// reproduces the trailing pause. Purely local (no shared
				// resource is touched after a rank's last record), and a
				// no-op when the last completion is the phase end.
				pace(p, a.info.PhaseEnd)
				a.timer.Done()
			})
		}
	}
	pl.E.Run()

	res := &ReplayResult{
		Recorded: t.Header.Apps,
		Trace:    &Trace{Header: Header{Cfg: cfg}, Records: pl.FS.Records()},
	}
	for _, a := range apps {
		if !a.timer.Finished() {
			return nil, fmt.Errorf("trace: replayed app %q did not finish (deadlock?)", a.info.Name)
		}
		elapsed := a.timer.Elapsed()
		res.Apps = append(res.Apps, core.AppResult{
			Name:       a.info.Name,
			Start:      a.timer.Start(),
			End:        a.timer.End(),
			Elapsed:    elapsed,
			Bytes:      a.info.Bytes,
			Throughput: sim.Rate(a.info.Bytes, elapsed),
		})
		// The replay's own trace must describe the replay: same app table,
		// but with the phase windows this run actually produced — on a
		// counterfactual platform they differ from the input's, and a saved
		// replay trace must verify against its own outcome, not the
		// original's.
		info := a.info
		info.PhaseStart = a.timer.Start()
		info.PhaseEnd = a.timer.End()
		res.Trace.Header.Apps = append(res.Trace.Header.Apps, info)
	}
	return res, nil
}

// pace sleeps from the current time to the record's absolute issue time —
// the single pause that stands in for whatever think time, compute phase or
// jitter preceded the operation in the recorded run. A recorded time in the
// past (possible only on a modified platform, where earlier operations may
// run slower than recorded) replays immediately, preserving order.
func pace(p *sim.Proc, at sim.Time) {
	if d := at - p.Now(); d > 0 {
		p.Sleep(d)
	}
}

// replayRank drives one rank: it splits the rank's records at its barrier
// records and runs each segment through core.Burst at the app's queue
// depth, pacing every request to its recorded issue time, then paces to
// the barrier record and re-enters the barrier. That is core.runProgram's
// event structure exactly whenever each pipelined I/O phase ends at a
// barrier (or is the program's only one).
func replayRank(p *sim.Proc, t *Trace, fs *pfs.FileSystem, a *replayApp, cl *pfs.Client, idxs []int32) {
	for len(idxs) > 0 {
		j := 0
		for j < len(idxs) && t.Records[idxs[j]].Op != pfs.OpBarrier {
			j++
		}
		seg := idxs[:j]
		core.Burst(p, cl, a.file, a.info.QD, len(seg), func(i int) (int64, int64, bool) {
			r := &t.Records[seg[i]]
			pace(p, r.Time)
			return r.Off, r.Bytes, r.Op == pfs.OpRead
		})
		if j < len(idxs) {
			pace(p, t.Records[idxs[j]].Time)
			core.BarrierWait(p, fs, cl, a.bar)
			j++
		}
		idxs = idxs[j:]
	}
}
