package sim

import "fmt"

// ShardSet is a conservative windowed discrete-event kernel (classic
// CMB/YAWNS windowed synchronization): K independently-clocked Engines,
// one per shard, advancing in lock-step windows derived from a global
// lookahead L — the minimum simulated latency of any cross-shard
// interaction. Run steps every window on the calling goroutine, one shard
// after another.
//
// Each window Run drains the per-pair mailboxes into the destination
// queues, computes M = min over shards of the next pending event time, and
// lets every shard execute all events with at < M+L. Any message generated
// inside the window is sent at a time >= M and therefore due at >= M+L,
// strictly after the window — so no shard can receive an event in its
// past, and the shards exchange nothing but the mailboxes drained between
// windows.
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
	outbox    [][]xmsg // mailbox per (src, dst) pair, indexed src*K+dst
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

// stepWindow drains the mailboxes and executes one synchronization window,
// shard by shard. It reports false once no events remain anywhere. Run
// loops over it, and the zero-allocation test pins it.
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

// Run executes the whole simulation on the calling goroutine and returns
// the final time. Each window runs its shards one after another; a window's
// events cannot reach another shard before the window ends (see ShardSet),
// so the order in which the shards step does not change the result. A panic
// in any shard's event reaches Run's caller.
func (s *ShardSet) Run() Time {
	if len(s.engines) == 1 {
		return s.engines[0].Run()
	}
	for s.stepWindow() {
	}
	return s.Now()
}
