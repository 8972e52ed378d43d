package core

import (
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runProgram executes the app's workload program on one rank: Iterations
// passes over the phase list, each pass running compute pauses (fixed think
// time plus deterministic exponential jitter), application-wide barriers and
// I/O bursts in order. An io phase is the rank's request plan for the
// phase's spec, issued through Burst at the spec's queue depth with the
// think time slept before each request; a single-burst app is one such
// phase.
//
// Jitter draws come from a rank-local generator seeded only by the program's
// Seed: every rank draws the identical sequence (a collective pause that
// keeps the burst coherent), so the schedule is independent of rank count,
// of the application's position in the run, and of event interleaving — the
// determinism the trace replayer and the δ-graph runner both rely on.
//
// Each compute phase issues at most one Sleep, and barrier entries happen
// directly at the previous phase's completion time. That discipline is the
// replay determinism contract (see internal/trace): a replayer that sleeps
// to each record's absolute timestamp from the same wake-up points
// reproduces this event structure exactly.
func runProgram(p *sim.Proc, fs *pfs.FileSystem, cl *pfs.Client, app *App, rank int) {
	prog := app.Program
	rng := sim.NewRand(prog.Seed)
	for it := 0; it < prog.Iters(); it++ {
		for _, ph := range prog.Phases {
			switch ph.Kind {
			case workload.PhaseCompute:
				pause := sim.Time(ph.Compute)
				if ph.JitterMean > 0 {
					pause += sim.Time(rng.ExpFloat64() * float64(ph.JitterMean))
				}
				if pause > 0 {
					p.Sleep(pause)
				}
			case workload.PhaseBarrier:
				BarrierWait(p, fs, cl, app.Barrier)
			case workload.PhaseIO:
				wl := ph.IO
				plan := wl.Plan(rank, app.Spec.Procs)
				think := sim.Time(wl.ThinkTime)
				Burst(p, cl, app.File, wl.QD, len(plan), func(i int) (int64, int64, bool) {
					if think > 0 {
						p.Sleep(think)
					}
					return plan[i].Off, plan[i].Size, wl.Read
				})
			}
		}
	}
}
