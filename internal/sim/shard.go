package sim

// ShardSet is a conservative windowed discrete-event kernel (classic
// CMB/YAWNS windowed synchronization): K independently-clocked Engines,
// one per shard, advancing in lock-step windows derived from a global
// lookahead L — the minimum simulated latency of any cross-shard
// interaction. Run steps every window on the calling goroutine, one shard
// after another.
//
// Each window Run computes M = min over shards of the next pending event
// time and lets every shard execute all events with at < M+L. Any event
// posted to another shard inside the window is sent at a time >= M and
// therefore due at >= M+L, strictly after the window — so no shard can
// receive an event in its past.
//
// # Shard boundary contract
//
// Cross-shard interactions go exclusively through Engine.PostCall
// (timestamped events, due at >= sender now + L; violating the bound
// panics). A post is inserted into the destination's queue at once. That
// is safe only because the shards step one after another: the
// destination is never mid-window while another shard posts to it, and
// the post lies past the window's deadline, which no shard's floor (its
// last popped due time) exceeds. During a window a shard may touch only
// state owned by its own shard; everything else it reaches via posts,
// except that state the destination provably cannot observe before one
// lookahead has passed may be written in place (the transport's receive
// queue, appended on Send: no byte of the message arrives sooner).
//
// # Determinism
//
// The engines order events by (at, sched, psched, gsched, src, seq); a
// posted event carries the sender's clock and two levels of its
// scheduling ancestry as its (sched, psched, gsched) stamps plus the
// sender's shard, so the execution order on every shard reproduces the
// serial engine's (at, global seq) order: on one engine the global seq
// order of two events with equal due times is their push-time order
// (sched); pushes at the same instant happen in the order the pushing
// events executed — which is *their* push-time order (psched),
// recursively once more (gsched) — and the src key breaks exact
// three-level ties in shard construction order. seq, the destination's
// own counter, breaks ties only among events equal in (at, sched, psched,
// gsched, src), which src confines to one sender: one shard's own pushes,
// or one sender's posts to one destination, which get their seq in post
// order. TestShardSetMatchesSerial holds each shard's execution order to
// the serial engine's, and the serial-oracle conformance suite
// (internal/scenario) asserts the resulting bit-identity end to end.
type ShardSet struct {
	lookahead Time
	engines   []*Engine
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

// stepWindow executes one synchronization window, shard by shard. It
// reports false once no events remain anywhere. Run loops over it, and the
// zero-allocation test pins it.
func (s *ShardSet) stepWindow() bool {
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
// posts are due after the window ends (see ShardSet), so the order in which
// the shards step does not change the result. A panic in any shard's event
// reaches Run's caller.
func (s *ShardSet) Run() Time {
	if len(s.engines) == 1 {
		return s.engines[0].Run()
	}
	for s.stepWindow() {
	}
	return s.Now()
}
