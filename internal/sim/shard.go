package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// ShardSet is a conservative parallel discrete-event kernel (classic
// CMB/YAWNS windowed synchronization): K independently-clocked Engines,
// one per shard, advancing in lock-step windows derived from a global
// lookahead L — the minimum simulated latency of any cross-shard
// interaction.
//
// Each window the coordinator drains the per-pair mailboxes into the
// destination queues, computes M = min over shards of the next pending event
// time, and lets every shard execute all events with at < M+L. Any message
// generated inside the window is sent at a time >= M and therefore due at
// >= M+L, strictly after the window — so no shard can receive an event in
// its past, and the barrier between windows is the only synchronization the
// shards need.
//
// # Shard boundary contract
//
// Cross-shard interactions go exclusively through Engine.PostCall /
// PostFunc (timestamped events, due at >= sender now + L; violating the
// bound panics) and Engine.PostApply (event-free state deliveries applied
// at the next drain). During a window a shard may touch only state owned by
// its own shard plus its outgoing mailboxes; everything else it reaches via
// posts. Within one (src, dst) pair messages are delivered FIFO.
//
// # Determinism
//
// The engines order events by (at, sched, psched, gsched, src, seq);
// injected events carry the sender's send time and two levels of its
// scheduling ancestry as their (sched, psched, gsched) stamps plus the
// sender's shard, and the drain processes mailboxes in (dst, src, FIFO)
// order, so the merged execution order on every shard reproduces the
// serial engine's (at, global seq) order: on one engine the global seq
// order of two events with equal due times is their push-time order
// (sched); pushes at the same instant happen in the order the pushing
// events executed — which is *their* push-time order (psched), recursively
// once more (gsched) — and the src key breaks exact three-level ties in
// shard construction order. The serial-oracle conformance suite
// (internal/scenario) asserts the resulting bit-identity end to end.
type ShardSet struct {
	lookahead Time
	engines   []*Engine
	outbox    [][]xmsg   // mailbox per (src, dst) pair, indexed src*K+dst
	ctl       []shardCtl // per-shard worker doorbell, index 0 unused
	started   bool
}

// xmsg is one cross-shard mailbox entry: either a timestamped event
// (tgt/fn, due at `at`, carrying the sender's sched stamp) or an Applier
// delivery (ap != nil, applied at drain time).
type xmsg struct {
	at     Time
	sched  Time
	psched Time
	gsched Time
	a, b   int64
	fn     func()
	tgt    Target
	ap     Applier
	data   any
	op     uint32
}

// shardCtl is the spin-synchronized doorbell of one worker shard. The
// coordinator publishes a window bound and bumps goGen; the worker runs its
// engine to the bound and echoes the generation into doneGen. Atomic
// generations give the barrier its happens-before edges (mailbox writes of
// a window are visible to the coordinator's drain, drain pushes are visible
// to the next window's worker). The padding keeps neighboring shards'
// doorbells off one cache line.
type shardCtl struct {
	bound   atomic.Int64  // window deadline (inclusive); < 0 orders shutdown
	goGen   atomic.Uint64 // bumped by the coordinator to start a window
	doneGen atomic.Uint64 // set by the worker when the window is done
	_       [64 - 3*8]byte
}

// NewShardSet builds K engines sharing one conservative synchronizer.
// lookahead must be positive — a zero-lookahead model has no safe window
// and cannot be sharded conservatively.
func NewShardSet(k int, lookahead Time) *ShardSet {
	if k < 1 {
		panic("sim: ShardSet needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: ShardSet needs a positive lookahead")
	}
	s := &ShardSet{
		lookahead: lookahead,
		engines:   make([]*Engine, k),
		outbox:    make([][]xmsg, k*k),
		ctl:       make([]shardCtl, k),
	}
	for i := range s.engines {
		e := NewEngine()
		e.shard = uint32(i)
		e.set = s
		s.engines[i] = e
	}
	return s
}

// Shards returns the number of shards.
func (s *ShardSet) Shards() int { return len(s.engines) }

// Lookahead returns the conservative synchronization bound.
func (s *ShardSet) Lookahead() Time { return s.lookahead }

// Engine returns shard i's engine.
func (s *ShardSet) Engine(i int) *Engine { return s.engines[i] }

// Executed sums executed events over all shards. Cross-shard events count
// once, on the shard that executes them, so the sum equals the serial
// engine's count for the same simulation.
func (s *ShardSet) Executed() uint64 {
	var n uint64
	for _, e := range s.engines {
		n += e.executed
	}
	return n
}

// Parked sums currently parked procs over all shards.
func (s *ShardSet) Parked() int {
	n := 0
	for _, e := range s.engines {
		n += e.parked
	}
	return n
}

// Now returns the latest shard clock — after Run, the simulation end time.
func (s *ShardSet) Now() Time {
	var t Time
	for _, e := range s.engines {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// post enqueues one cross-shard message, enforcing the lookahead contract
// for timestamped events. It runs inside src's window, so it may touch only
// src's outgoing mailboxes.
func (s *ShardSet) post(src, dst *Engine, m xmsg) {
	if m.ap == nil && m.at < src.now+s.lookahead {
		panic(fmt.Sprintf("sim: cross-shard event at %v violates lookahead %v (shard %d now %v)",
			m.at, s.lookahead, src.shard, src.now))
	}
	i := int(src.shard)*len(s.engines) + int(dst.shard)
	s.outbox[i] = append(s.outbox[i], m)
}

// drain merges every mailbox into its destination: Applier deliveries apply
// immediately, timestamped events are injected with the sender's
// (sched, src) stamps. Deterministic order — destinations ascending, then
// sources ascending, then FIFO — fixes the seq assignment of same-stamp
// injections. Mailbox slices are reused; the steady-state drain allocates
// nothing.
func (s *ShardSet) drain() {
	k := len(s.engines)
	for d := 0; d < k; d++ {
		dst := s.engines[d]
		for src := 0; src < k; src++ {
			box := s.outbox[src*k+d]
			if len(box) == 0 {
				continue
			}
			for i := range box {
				m := &box[i]
				if m.ap != nil {
					m.ap.OnApply(m.a, m.b, m.data)
				} else {
					dst.pushRaw(event{
						at: m.at, sched: m.sched, psched: m.psched, gsched: m.gsched,
						src: uint32(src),
						a:   m.a, b: m.b, fn: m.fn, tgt: m.tgt, op: m.op,
					})
				}
				box[i] = xmsg{} // release payload references
			}
			s.outbox[src*k+d] = box[:0]
		}
	}
}

// windowDeadline returns the inclusive execution deadline of the window
// opening at M: events with at <= M+L-1 (i.e. at < M+L) are safe.
func (s *ShardSet) windowDeadline(m Time) Time {
	w := m + s.lookahead
	if w <= m { // overflow near MaxTime
		return MaxTime
	}
	return w - 1
}

// minNext returns the earliest pending event time across all shards.
func (s *ShardSet) minNext() (Time, bool) {
	var min Time
	found := false
	for _, e := range s.engines {
		if t, ok := e.NextEventTime(); ok && (!found || t < min) {
			min, found = t, true
		}
	}
	return min, found
}

// stepWindow drains the mailboxes and executes one synchronization window
// on the calling goroutine, shard by shard. It reports false once no events
// remain anywhere. This is the single-threaded reference for the
// worker-parallel Run loop — and the path the zero-allocation test pins.
func (s *ShardSet) stepWindow() bool {
	s.drain()
	m, ok := s.minNext()
	if !ok {
		return false
	}
	deadline := s.windowDeadline(m)
	for _, e := range s.engines {
		if t, ok := e.NextEventTime(); ok && t <= deadline {
			e.RunUntil(deadline)
		}
	}
	return true
}

// spin waits for cond, staying on-CPU for a short burst (windows are
// microseconds of work; parking would dominate them) before yielding the
// processor so undersubscribed schedulers still make progress.
func spin(cond func() bool) {
	for i := 0; ; i++ {
		if cond() {
			return
		}
		if i > 256 {
			runtime.Gosched()
		}
	}
}

// worker drives one shard: it waits for the coordinator's doorbell, runs
// its engine to the published deadline, and echoes the generation. A
// negative bound shuts it down.
func (s *ShardSet) worker(i int) {
	e := s.engines[i]
	c := &s.ctl[i]
	var seen uint64
	for {
		c2 := c
		spin(func() bool { return c2.goGen.Load() != seen })
		seen = c.goGen.Load()
		b := c.bound.Load()
		if b < 0 {
			c.doneGen.Store(seen)
			return
		}
		e.RunUntil(Time(b))
		c.doneGen.Store(seen)
	}
}

// Run executes the whole simulation and returns the final time. Shard 0
// runs on the calling goroutine (it is the client/coordinator shard in the
// cluster layout, usually the busiest); shards 1..K-1 run on worker
// goroutines that live for the duration of the call.
//
// On a single-processor runtime (GOMAXPROCS=1) worker goroutines cannot
// overlap shard execution — busy-wait synchronization would only fight the
// lone processor for cycles — so Run degenerates to the sequential window
// loop instead. Results are identical on both paths (stepWindow is the
// reference the parallel loop reproduces); only wall-clock time differs.
func (s *ShardSet) Run() Time {
	if len(s.engines) == 1 {
		return s.engines[0].Run()
	}
	if s.started {
		panic("sim: ShardSet.Run called twice")
	}
	s.started = true
	if runtime.GOMAXPROCS(0) < 2 {
		for s.stepWindow() {
		}
		return s.Now()
	}
	return s.runParallel()
}

// runParallel is Run's worker-pool body: one goroutine per shard 1..K-1,
// spin-synchronized windows, shard 0 inline on the caller.
func (s *ShardSet) runParallel() Time {
	k := len(s.engines)
	for i := 1; i < k; i++ {
		go s.worker(i)
	}
	for {
		s.drain()
		m, ok := s.minNext()
		if !ok {
			break
		}
		deadline := s.windowDeadline(m)
		dispatched := 0
		for i := 1; i < k; i++ {
			if t, ok := s.engines[i].NextEventTime(); ok && t <= deadline {
				c := &s.ctl[i]
				c.bound.Store(int64(deadline))
				c.goGen.Add(1)
				dispatched++
			}
		}
		if t, ok := s.engines[0].NextEventTime(); ok && t <= deadline {
			s.engines[0].RunUntil(deadline)
		}
		if dispatched > 0 {
			for i := 1; i < k; i++ {
				c := &s.ctl[i]
				g := c.goGen.Load()
				spin(func() bool { return c.doneGen.Load() == g })
			}
		}
	}
	// Shut the workers down and wait for the echo so no goroutine outlives
	// the simulation.
	for i := 1; i < k; i++ {
		c := &s.ctl[i]
		c.bound.Store(-1)
		c.goGen.Add(1)
	}
	for i := 1; i < k; i++ {
		c := &s.ctl[i]
		g := c.goGen.Load()
		spin(func() bool { return c.doneGen.Load() == g })
	}
	return s.Now()
}
