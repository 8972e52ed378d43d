package sim

import (
	"slices"
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

// orderRun is one run of TestShardSetMatchesSerial's workload on k shards:
// logical node n is homed on engine n%k, and every event appends its id to
// the log of the engine it executes on. The workload's structure, event ids
// included, is the same at every k; only the placement changes.
type orderRun struct {
	s    *ShardSet
	k    int
	logs [][]orderEntry
}

// orderEntry is one executed event of an orderRun and the node it ran on.
type orderEntry struct {
	node int
	id   int64
}

func (r *orderRun) engine(node int) *Engine { return r.s.Engine(node % r.k) }

// event returns the Target of event id on node: it logs the id and then
// runs then, if set.
func (r *orderRun) event(node int, id int64, then func()) Target {
	return targetFunc(func(uint32, int64, int64) {
		r.logs[node%r.k] = append(r.logs[node%r.k], orderEntry{node, id})
		if then != nil {
			then()
		}
	})
}

// post sends event id from node `from`, which is executing or being set
// up, to node `to` at time at: an AtCall when both share an engine, a
// cross-shard post otherwise.
func (r *orderRun) post(from, to int, at Time, id int64, then func()) {
	r.engine(from).PostCall(r.engine(to), at, r.event(to, id, then), 0, 0, 0)
}

// local schedules event id on node's own engine at time at.
func (r *orderRun) local(node int, at Time, id int64, then func()) { r.post(node, node, at, id, then) }

// TestShardSetMatchesSerial runs one workload on a serial engine and on
// shard sets of several sizes and asserts that every shard executes its
// events in the serial engine's order of the same events, besides equal
// end times and executed counts — the kernel-level slice of the
// determinism oracle (the end-to-end slice lives in internal/scenario).
//
// The workload has two parts. Relay chains hop from node to node one
// lookahead apart. Tie rounds make three posts to node 1 due at one time
// and sent at one time, one from each of nodes 0, 1 and 2: node 1's own,
// one from node 0 (which, on three or four shards, steps before node 1 in
// a window, and sends twice) and one from node 2 (which steps after it).
// Only their parents' scheduling times (psched) tell them apart, and they
// put node 2's post first and node 0's last. A post stamped with the
// destination's clock instead of the sender's reorders them.
func TestShardSetMatchesSerial(t *testing.T) {
	const la = Time(1000)
	const nodes = 5
	run := func(k int) *orderRun {
		r := &orderRun{s: NewShardSet(k, la), k: k, logs: make([][]orderEntry, k)}
		var relay func(c, node, depth int) func()
		relay = func(c, node, depth int) func() {
			return func() {
				if depth == 0 {
					return
				}
				next := (node + 1) % nodes
				r.post(node, next, r.engine(node).Now()+la, int64(c*100+depth), relay(c, next, depth-1))
			}
		}
		for c := 0; c < 8; c++ {
			r.local(c%nodes, Time(c)*10, int64(c*100), relay(c, c%nodes, 16))
		}
		for round := int64(0); round < 4; round++ {
			base := 30*la + Time(round)*10*la
			id := 10_000 + round*100
			arrive := base + la
			// Each sender's trigger is due at base, scheduled at its own
			// time before base: node 2 first, then node 1, then node 0.
			r.local(2, base-20, id+1, func() {
				r.local(2, base, id+2, func() { r.post(2, 1, arrive, id+3, nil) })
			})
			r.local(1, base-10, id+4, func() {
				r.local(1, base, id+5, func() {
					r.local(1, arrive, id+6, nil)
					r.local(1, base+1, id+7, nil) // node 1's clock passes base
				})
			})
			r.local(0, base-5, id+8, func() {
				r.local(0, base, id+9, func() {
					r.post(0, 1, arrive, id+10, nil)
					r.post(0, 1, arrive, id+11, nil)
				})
			})
		}
		r.s.Run()
		return r
	}
	want := run(1)
	serial := want.logs[0]
	for _, k := range []int{2, 3, 4} {
		got := run(k)
		if end, n := got.s.Now(), got.s.Executed(); end != want.s.Now() || n != want.s.Executed() {
			t.Fatalf("k=%d: (end, executed) = (%d, %d), want (%d, %d)", k, end, n, want.s.Now(), want.s.Executed())
		}
		for i, log := range got.logs {
			var ref []orderEntry
			for _, x := range serial {
				if x.node%k == i {
					ref = append(ref, x)
				}
			}
			if !slices.Equal(log, ref) {
				n := 0
				for n < min(len(log), len(ref)) && log[n] == ref[n] {
					n++
				}
				t.Fatalf("k=%d shard %d: from its event %d it executed %v, serial order %v",
					k, i, n, log[n:min(n+4, len(log))], ref[n:min(n+4, len(ref))])
			}
		}
	}
}

// TestShardSetPanicReachesCaller pins that a panic in an event on a
// shard other than 0 reaches Run's caller, where a recover can see it.
func TestShardSetPanicReachesCaller(t *testing.T) {
	s := NewShardSet(2, 1000)
	a, b := s.Engine(0), s.Engine(1)
	boom := targetFunc(func(uint32, int64, int64) { panic("boom") })
	a.At(0, func() { a.PostCall(b, 1000, boom, 0, 0, 0) })
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
	a.PostCall(b, a.Now()+999, targetFunc(func(uint32, int64, int64) {}), 0, 0, 0)
}

func TestShardSetRejectsForeignEngines(t *testing.T) {
	s1 := NewShardSet(2, 1000)
	s2 := NewShardSet(2, 1000)
	defer func() {
		if recover() == nil {
			t.Fatal("posting across unrelated shard sets must panic")
		}
	}()
	s1.Engine(0).PostCall(s2.Engine(1), 5000, targetFunc(func(uint32, int64, int64) {}), 0, 0, 0)
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

// TestShardWindowAllocs pins the steady-state window path, cross-shard
// posts included, at zero allocations per window once the destination
// engines' slabs and queue buckets have warmed up.
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
	// Warm up the slabs and queue buckets.
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
	// Reserve and Send must book identical delivery times for equal
	// queues: compare two fresh lines.
	e := NewEngine()
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
