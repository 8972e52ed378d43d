// Package mpisim provides the minimal MPI-like runtime the paper's
// microbenchmark needs: barriers and collectively timed I/O phases. Ranks
// are simulated processes; no message passing beyond barriers is modeled
// because the benchmark performs none.
package mpisim

import "repro/internal/sim"

// NewBarrier returns a reusable rendezvous for n participants (the ranks of
// one application).
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("mpisim: barrier size must be positive")
	}
	return &Barrier{n: n}
}

// Barrier is a reusable rendezvous for n participants.
type Barrier struct {
	n       int
	arrived int
	sig     *sim.Signal
}

// Wait blocks until n participants have called Wait; the barrier then
// resets for reuse.
func (b *Barrier) Wait(p *sim.Proc) {
	if b.sig == nil {
		b.sig = &sim.Signal{}
	}
	b.arrived++
	if b.arrived == b.n {
		s := b.sig
		b.arrived = 0
		b.sig = nil
		s.Fire()
		return
	}
	p.Await(b.sig)
}

// PhaseTimer measures a collectively executed phase: the phase starts when
// every rank has entered (first barrier) and ends when every rank has
// finished (last Done). This is exactly how the paper times an I/O burst.
type PhaseTimer struct {
	e       *sim.Engine
	n       int
	entered int
	done    int
	start   sim.Time
	end     sim.Time
	begin   sim.Signal
}

// NewPhaseTimer creates a timer for n ranks.
func NewPhaseTimer(e *sim.Engine, n int) *PhaseTimer {
	return &PhaseTimer{e: e, n: n}
}

// Enter marks the rank ready and blocks until all ranks have entered.
func (t *PhaseTimer) Enter(p *sim.Proc) {
	t.entered++
	if t.entered == t.n {
		t.start = t.e.Now()
		t.begin.Fire()
		return
	}
	p.Await(&t.begin)
}

// Done marks the rank's work complete.
func (t *PhaseTimer) Done() {
	t.done++
	if t.done == t.n {
		t.end = t.e.Now()
	}
}

// Elapsed returns the phase duration (valid once all ranks are done).
func (t *PhaseTimer) Elapsed() sim.Time { return t.end - t.start }

// Start returns the phase start time.
func (t *PhaseTimer) Start() sim.Time { return t.start }

// End returns the phase end time.
func (t *PhaseTimer) End() sim.Time { return t.end }

// Finished reports whether the phase has completed.
func (t *PhaseTimer) Finished() bool { return t.done == t.n }
