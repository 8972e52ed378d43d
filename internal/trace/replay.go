package trace

import (
	"fmt"

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
	// Events is the replay simulation's executed event count.
	Events uint64
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
// and the jitter stream), and the per-rank drivers mirror core's launch
// bodies, so an unmodified-platform replay reproduces the recorded event
// structure exactly.
func ReplayOn(t *Trace, cfg cluster.Config) (*ReplayResult, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	pl := cluster.Build(cfg)
	rec := NewRecorder(pl.E)
	rec.Reserve(len(t.Records))
	pl.FS.Sink = rec

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
			pl.E.Spawn(fmt.Sprintf("%s/%d", a.info.Name, rank), func(p *sim.Proc) {
				if a.info.Start > 0 {
					p.Sleep(a.info.Start)
				}
				a.timer.Enter(p)
				if a.info.QD <= 1 {
					replayBlocking(p, t, pl.FS, a, cl, a.perRank[rank])
				} else {
					replayPipelined(p, t, pl.FS, a, cl, a.perRank[rank])
				}
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
		Trace:    &Trace{Header: Header{Cfg: cfg}, Records: rec.Records()},
		Events:   pl.E.Executed(),
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

// barrier re-enters the application barrier, re-emitting the barrier record
// exactly like core.runProgram does (the pfs client hook only covers I/O),
// so the replay's own recording matches the input stream record for record.
func barrier(p *sim.Proc, fs *pfs.FileSystem, a *replayApp, cl *pfs.Client) {
	idx := -1
	sink := fs.Sink
	if sink != nil {
		idx = sink.BeginRequest(Record{
			Time: p.Now(), App: int32(cl.App), Rank: int32(cl.Rank),
			Server: -1, Op: pfs.OpBarrier,
		})
	}
	a.bar.Wait(p, cl.Host.Egress.E)
	if sink != nil {
		sink.EndRequest(idx)
	}
}

// replayBlocking drives one rank of a queue-depth<=1 application: each
// record is paced to its issue time and executed blocking, exactly the
// event structure of core.runBurst's blocking path.
func replayBlocking(p *sim.Proc, t *Trace, fs *pfs.FileSystem, a *replayApp, cl *pfs.Client, idxs []int32) {
	for _, ri := range idxs {
		r := &t.Records[ri]
		pace(p, r.Time)
		switch r.Op {
		case pfs.OpBarrier:
			barrier(p, fs, a, cl)
		case pfs.OpRead:
			cl.Read(p, a.file, r.Off, r.Bytes)
		default:
			cl.Write(p, a.file, r.Off, r.Bytes)
		}
	}
}

// replayPipelined drives one rank of a queue-depth>1 application. Barrier
// records delimit the bursts: within each segment the rank re-runs
// core.runBurst's pipelined structure (semaphore of QD tokens, completion
// gate, pace-then-issue), draining fully before the barrier — which is
// exactly the recorded structure when each pipelined I/O phase ends at a
// barrier (or is the program's only one).
func replayPipelined(p *sim.Proc, t *Trace, fs *pfs.FileSystem, a *replayApp, cl *pfs.Client, idxs []int32) {
	i := 0
	for i < len(idxs) {
		j := i
		for j < len(idxs) && t.Records[idxs[j]].Op != pfs.OpBarrier {
			j++
		}
		if seg := idxs[i:j]; len(seg) > 0 {
			replayBurst(p, t, a, cl, seg)
		}
		if j < len(idxs) {
			pace(p, t.Records[idxs[j]].Time)
			barrier(p, fs, a, cl)
			j++
		}
		i = j
	}
}

// replayBurst mirrors core.runBurst's pipelined path over one segment.
func replayBurst(p *sim.Proc, t *Trace, a *replayApp, cl *pfs.Client, seg []int32) {
	e := cl.Host.Egress.E
	sem := sim.NewSemaphore(a.info.QD)
	gate := sim.NewGate(len(seg))
	for _, ri := range seg {
		r := &t.Records[ri]
		sem.Acquire(p)
		pace(p, r.Time)
		done := func() {
			sem.Release()
			gate.Done(e)
		}
		if r.Op == pfs.OpRead {
			cl.ReadAsync(a.file, r.Off, r.Bytes, done)
		} else {
			cl.WriteAsync(a.file, r.Off, r.Bytes, done)
		}
	}
	gate.Wait(p)
}
