package sim

import (
	"testing"
)

// pingPong is a Target bouncing a counter between two engines of a set:
// every delivery re-posts to the peer one lookahead later, recording the
// times it observes. The hop index rides in the event payload, so the total
// hop budget needs no state shared across shards.
type pingPong struct {
	set   *ShardSet
	self  *Engine
	peer  *pingPong
	limit int64
	log   []Time
}

func (p *pingPong) OnEvent(op uint32, a, b int64) {
	p.log = append(p.log, p.self.now)
	if a+1 >= p.limit {
		return
	}
	p.self.PostCall(p.peer.self, p.self.now+p.set.Lookahead(), p.peer, op, a+1, b)
}

// buildPingPong wires a two-shard ping-pong with the given lookahead and
// returns both endpoints.
func buildPingPong(k int, la Time, limit int64) (*ShardSet, *pingPong, *pingPong) {
	s := NewShardSet(k, la)
	a := &pingPong{set: s, self: s.Engine(0), limit: limit}
	b := &pingPong{set: s, self: s.Engine(k - 1), limit: limit}
	a.peer, b.peer = b, a
	a.self.AtCall(0, a, 0, 0, 0)
	return s, a, b
}

func TestShardSetPingPong(t *testing.T) {
	const la = Time(40_000)
	const hops = 50
	s, a, b := buildPingPong(2, la, hops)
	end := s.Run()
	if got := len(a.log) + len(b.log); got != hops {
		t.Fatalf("hops = %d, want %d", got, hops)
	}
	if want := Time(hops-1) * la; end != want {
		t.Fatalf("end = %d, want %d", end, want)
	}
	// Each endpoint sees strictly increasing times spaced 2 lookaheads apart.
	for _, pp := range []*pingPong{a, b} {
		for i := 1; i < len(pp.log); i++ {
			if pp.log[i]-pp.log[i-1] != 2*la {
				t.Fatalf("hop spacing %d, want %d", pp.log[i]-pp.log[i-1], 2*la)
			}
		}
	}
	if s.Executed() != hops {
		t.Fatalf("Executed = %d, want %d", s.Executed(), hops)
	}
}

// TestShardSetMatchesSerial runs the same fan-out/fan-in workload on a
// serial engine and on shard sets of several sizes, asserting the executed
// event counts and end times agree — the kernel-level slice of the
// determinism oracle (the end-to-end slice lives in internal/scenario).
func TestShardSetMatchesSerial(t *testing.T) {
	const la = Time(1000)
	const chains = 8
	// run maps a fixed workload — `chains` relay chains of depth 16, chain c
	// homed on engine c%k, every hop moving one engine to the right — onto k
	// shards. The event structure is identical for every k; only the
	// engine placement changes.
	run := func(k int) (Time, uint64) {
		s := NewShardSet(k, la)
		var relay func(i int, depth int) func()
		relay = func(i int, depth int) func() {
			return func() {
				if depth == 0 {
					return
				}
				src := s.Engine(i)
				dst := s.Engine((i + 1) % k)
				src.PostFunc(dst, src.Now()+la, relay((i+1)%k, depth-1))
			}
		}
		for c := 0; c < chains; c++ {
			s.Engine(c%k).At(Time(c)*10, relay(c%k, 16))
		}
		end := s.Run()
		return end, s.Executed()
	}
	wantEnd, wantN := run(1)
	for _, k := range []int{2, 3, 4} {
		end, n := run(k)
		if end != wantEnd || n != wantN {
			t.Fatalf("k=%d: (end, executed) = (%d, %d), want (%d, %d)", k, end, n, wantEnd, wantN)
		}
	}
}

// TestShardSetPanicReachesCaller pins that a panic in an event on a
// shard other than 0 reaches Run's caller, where a recover can see it.
func TestShardSetPanicReachesCaller(t *testing.T) {
	s := NewShardSet(2, 1000)
	a, b := s.Engine(0), s.Engine(1)
	a.At(0, func() { a.PostFunc(b, 1000, func() { panic("boom") }) })
	defer func() {
		if v := recover(); v != "boom" {
			t.Fatalf("recovered %v, want boom", v)
		}
	}()
	s.Run()
}

func TestShardSetLookaheadContract(t *testing.T) {
	s := NewShardSet(2, 1000)
	a, b := s.Engine(0), s.Engine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("posting inside the lookahead window must panic")
		}
	}()
	a.PostFunc(b, a.Now()+999, func() {})
}

func TestShardSetRejectsForeignEngines(t *testing.T) {
	s1 := NewShardSet(2, 1000)
	s2 := NewShardSet(2, 1000)
	defer func() {
		if recover() == nil {
			t.Fatal("posting across unrelated shard sets must panic")
		}
	}()
	s1.Engine(0).PostFunc(s2.Engine(1), 5000, func() {})
}

func TestNewShardSetValidation(t *testing.T) {
	for _, tc := range []struct{ k, la int }{{0, 1}, {1, 0}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewShardSet(%d, %d) must panic", tc.k, tc.la)
				}
			}()
			NewShardSet(tc.k, Time(tc.la))
		}()
	}
}

// applyProbe records Applier deliveries.
type applyProbe struct{ got []int64 }

func (p *applyProbe) OnApply(a, b int64, data any) { p.got = append(p.got, a) }

func TestShardSetPostApply(t *testing.T) {
	s := NewShardSet(2, 1000)
	a, b := s.Engine(0), s.Engine(1)
	probe := &applyProbe{}
	// Local apply runs synchronously.
	a.PostApply(a, probe, 1, 0, nil)
	if len(probe.got) != 1 {
		t.Fatalf("local PostApply must apply synchronously, got %v", probe.got)
	}
	// Cross-shard applies land at the next drain, before that window's
	// events, in FIFO order.
	a.At(0, func() {
		a.PostApply(b, probe, 2, 0, nil)
		a.PostApply(b, probe, 3, 0, nil)
	})
	done := false
	b.At(2000, func() {
		if len(probe.got) != 3 {
			t.Errorf("applies not delivered before the window's events: %v", probe.got)
		}
		done = true
	})
	s.Run()
	if !done {
		t.Fatal("receiver event never ran")
	}
	if probe.got[1] != 2 || probe.got[2] != 3 {
		t.Fatalf("applies out of FIFO order: %v", probe.got)
	}
}

// TestShardWindowAllocs pins the steady-state drain + window path at zero
// allocations per window once the mailboxes have warmed up.
func TestShardWindowAllocs(t *testing.T) {
	const la = Time(1000)
	s := NewShardSet(4, la)
	// Self-sustaining cross-shard traffic: each engine's Target re-posts to
	// the next engine forever (bounded by the measured window count).
	type relay struct {
		s    *ShardSet
		i    int
		stop bool
	}
	relays := make([]*relay, 4)
	targets := make([]Target, 4)
	for i := range relays {
		relays[i] = &relay{s: s, i: i}
	}
	for i, r := range relays {
		r := r
		targets[i] = targetFunc(func(op uint32, a, b int64) {
			if r.stop {
				return
			}
			src := r.s.Engine(r.i)
			dst := r.s.Engine((r.i + 1) % 4)
			src.PostCall(dst, src.Now()+la, targets[(r.i+1)%4], op, a, b)
		})
	}
	for i := 0; i < 4; i++ {
		s.Engine(i).AtCall(0, targets[i], 0, 0, 0)
	}
	// Warm up queue buckets and mailboxes.
	for i := 0; i < 16; i++ {
		if !s.stepWindow() {
			t.Fatal("traffic died during warm-up")
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if !s.stepWindow() {
			t.Fatal("traffic died during measurement")
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state window allocates %v allocs/op, want 0", avg)
	}
	for _, r := range relays {
		r.stop = true
	}
	s.Run()
}

// targetFunc adapts a func to Target for tests.
type targetFunc func(op uint32, a, b int64)

func (f targetFunc) OnEvent(op uint32, a, b int64) { f(op, a, b) }

func TestLineReserveMatchesSend(t *testing.T) {
	e := NewEngine()
	l := NewLine(e, 1e9)
	l.PerOp = 10
	l.Latency = 500
	for _, n := range []int64{0, 1, 1000, 1 << 20} {
		want := l.reserve(n)
		_ = want
		// Reserve and Send must book identical delivery times for equal
		// queues: compare two fresh lines.
	}
	l1 := NewLine(e, 1e9)
	l1.PerOp, l1.Latency = 10, 500
	l2 := NewLine(e, 1e9)
	l2.PerOp, l2.Latency = 10, 500
	for _, n := range []int64{0, 1, 1000, 1 << 20} {
		if got, want := l1.Reserve(n), l2.Send(n, nil); got != want {
			t.Fatalf("Reserve(%d) = %d, Send = %d", n, got, want)
		}
	}
}
