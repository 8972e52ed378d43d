package sim

import (
	"math/bits"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %v, want 30", e.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.Schedule(10, func() {
		trace = append(trace, e.Now())
		e.Schedule(5, func() { trace = append(trace, e.Now()) })
		e.Schedule(0, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	want := []Time{10, 10, 15}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %v, want %v", i, trace[i], want[i])
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want 2 events", fired)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	if e.Now() != 20 {
		t.Fatalf("now = %v, want 20 (time of last executed event)", e.Now())
	}
	e.Run()
	if len(fired) != 4 || e.Now() != 40 {
		t.Fatalf("after Run: fired=%v now=%v", fired, e.Now())
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(1, func() { n++ })
	e.Schedule(2, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatalf("first step: n=%d", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("second step: n=%d", n)
	}
	if e.Step() {
		t.Fatal("step on empty queue returned true")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling into the past")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 17; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Executed() != 17 {
		t.Fatalf("executed = %d, want 17", e.Executed())
	}
}

// Property: for any set of delays, events run in nondecreasing time order
// and the engine clock matches each event's scheduled time.
func TestPropertyTimeMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var seen []Time
		for _, d := range delays {
			d := Time(d)
			e.Schedule(d, func() {
				if e.Now() != d {
					t.Errorf("clock %v != scheduled %v", e.Now(), d)
				}
				seen = append(seen, e.Now())
			})
		}
		e.Run()
		if len(seen) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil never executes events past the deadline and leaves the
// remainder intact.
func TestPropertyRunUntilBoundary(t *testing.T) {
	f := func(delays []uint16, deadline uint16) bool {
		e := NewEngine()
		ran := 0
		expect := 0
		for _, d := range delays {
			if Time(d) <= Time(deadline) {
				expect++
			}
			e.Schedule(Time(d), func() { ran++ })
		}
		e.RunUntil(Time(deadline))
		return ran == expect && e.Pending() == len(delays)-expect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// orderKey is an event's full ordering key, (at, sched, psched, gsched,
// src, seq), as the order model records it at push time.
type orderKey struct {
	at, sched, psched, gsched Time
	src                       uint32
	seq                       uint64
}

func (k orderKey) less(o orderKey) bool {
	switch {
	case k.at != o.at:
		return k.at < o.at
	case k.sched != o.sched:
		return k.sched < o.sched
	case k.psched != o.psched:
		return k.psched < o.psched
	case k.gsched != o.gsched:
		return k.gsched < o.gsched
	case k.src != o.src:
		return k.src < o.src
	}
	return k.seq < o.seq
}

// orderModel is the reference for TestPropertyHeapOrder: it mirrors every
// event the engine holds, keyed by a test-assigned id, and checks that each
// executed event was the smallest pending one by the full key.
type orderModel struct {
	t       *testing.T
	e       *Engine
	rng     *Rand
	delay   func(*Rand) Time // due time of a push, relative to now
	pending map[int64]orderKey
	fired   []int64
	budget  int // pushes left; bounds the run
	nextID  int64
}

// tieDelays keeps every push within a few nanoseconds of now, so equal due
// times are the common case; they reach only the queue's lowest buckets.
func tieDelays(r *Rand) Time { return Time(r.Intn(4)) }

// levelDelays spreads pushes over every bucket level the campaigns reach:
// 0–3 ns ties, microseconds to about a second drawn log-uniformly, the
// transport's 200 ms retransmit timeout (itself tie-prone), and hours.
func levelDelays(r *Rand) Time {
	switch r.Intn(4) {
	case 0:
		return Time(r.Intn(4))
	case 1:
		return Time(r.Int63n(int64(1) << (1 + r.Intn(30))))
	case 2:
		return 200*Millisecond + Time(r.Intn(2))
	}
	return Time(1+r.Intn(3))*Hour + Time(r.Int63n(int64(Hour)))
}

// stamped returns the key the engine gives a local push, made now, that is
// due at `at` and gets sequence number seq.
func (m *orderModel) stamped(at Time, seq uint64) orderKey {
	e := m.e
	return orderKey{at: at, sched: e.now, psched: e.curSched, gsched: e.curPsched, src: e.shard, seq: seq}
}

func (m *orderModel) id() int64 {
	m.nextID++
	m.budget--
	return m.nextID
}

// push schedules one event m.delay after now.
func (m *orderModel) push() { m.pushAt(m.e.now + m.delay(m.rng)) }

// pushAt schedules one event due at `at` through a randomly chosen path —
// At, AtCall, or an injection through insert with another shard's stamps,
// as a cross-shard PostCall makes it. Like a real post, an injection is
// due strictly after now (a post is due past the window's deadline, so
// never at a floor; at now it becomes now+1) and sent before it is due,
// from a sender whose clock may be behind or ahead of this engine's. Its
// sent time lies within 2 ns of now and its ancestry stamps a few
// nanoseconds before that, so they tie with each other and with local
// events, in arbitrary shard order.
func (m *orderModel) pushAt(at Time) {
	e := m.e
	id := m.id()
	switch m.rng.Intn(3) {
	case 0:
		e.At(at, func() { m.fire(id) })
		m.pending[id] = m.stamped(at, e.seq)
	case 1:
		e.AtCall(at, m, 0, id, 0)
		m.pending[id] = m.stamped(at, e.seq)
	default:
		back := func(t Time) Time { return max(0, t-Time(m.rng.Intn(3))) }
		k := orderKey{at: max(at, e.now+1), src: uint32(m.rng.Intn(3))}
		k.sched = min(k.at-1, back(back(e.now+2)))
		k.psched = back(k.sched)
		k.gsched = back(k.psched)
		slot := e.alloc()
		ev := &e.slots[slot]
		ev.at, ev.fn, ev.p, ev.tgt = k.at, nil, nil, m
		ev.op, ev.a, ev.b = 0, id, 0
		ev.sched, ev.psched, ev.gsched, ev.src = k.sched, k.psched, k.gsched, k.src
		e.insert(slot)
		k.seq = e.seq
		m.pending[id] = k
	}
}

func (m *orderModel) OnEvent(op uint32, a, b int64) { m.fire(a) }

// fire runs as event id executes: it checks that id was the smallest
// pending key and due now, records the execution and sometimes schedules
// follow-ups from inside the event.
func (m *orderModel) fire(id int64) {
	k, ok := m.pending[id]
	if !ok {
		m.t.Fatalf("event %d executed but not pending", id)
	}
	if want := m.minPending(); want != id {
		m.t.Fatalf("executed event %d (key %+v), want %d (key %+v)", id, k, want, m.pending[want])
	}
	if m.e.now != k.at {
		m.t.Fatalf("event %d executed at %v, due %v", id, m.e.now, k.at)
	}
	delete(m.pending, id)
	m.fired = append(m.fired, id)
	for n := m.rng.Intn(3); n > 0 && m.budget > 0; n-- {
		m.push()
	}
}

// sleeper is a proc body that repeatedly sleeps m.delay, so its resumptions
// ride the proc-wake path with their own ancestry stamps.
func (m *orderModel) sleeper(startID int64, rounds int) func(*Proc) {
	return func(p *Proc) {
		m.fire(startID)
		for i := 0; i < rounds; i++ {
			d := m.delay(m.rng)
			id := m.id()
			// The wake-up is the next push on this engine.
			m.pending[id] = m.stamped(m.e.now+d, m.e.seq+1)
			p.Sleep(d)
			m.fire(id)
		}
	}
}

// minPending returns the id of the smallest pending key.
func (m *orderModel) minPending() int64 {
	var best int64 = -1
	for id, k := range m.pending {
		if best < 0 || k.less(m.pending[best]) {
			best = id
		}
	}
	return best
}

// runUntil runs the engine to a random deadline ahead of now and checks
// that it stopped with everything due run and nothing later touched. Then,
// from outside any event, it pushes a few events due between now and the
// earliest pending entry — what another shard's PostCall and obs do after
// a window — which a queue whose due check raised its floor would misfile.
func (m *orderModel) runUntil(seed uint64) {
	e := m.e
	deadline := e.now + m.delay(m.rng)
	if got := e.RunUntil(deadline); got != e.now || got > deadline {
		m.t.Fatalf("seed %d: RunUntil(%v) returned %v, now %v", seed, deadline, got, e.now)
	}
	for id, k := range m.pending {
		if k.at <= deadline {
			m.t.Fatalf("seed %d: RunUntil(%v) left event %d due %v", seed, deadline, id, k.at)
		}
	}
	checkQueue(m.t, e)
	if len(m.pending) == 0 {
		return
	}
	next := m.pending[m.minPending()].at
	for n := m.rng.Intn(4); n > 0 && m.budget > 0; n-- {
		m.pushAt(e.now + Time(m.rng.Int63n(int64(next-e.now)+1)))
	}
}

// checkQueue asserts the radix queue's invariants: the floor is the clock;
// bucket 0 holds entries due at the floor in strictly increasing tie-key
// order; bucket k > 0 holds entries whose due time first differs from the
// floor at bit k-1; the mask marks exactly the non-empty buckets; and a
// cached earliest time is the true one.
func checkQueue(t *testing.T, e *Engine) {
	t.Helper()
	if e.last != e.now {
		t.Fatalf("floor %v, clock %v", e.last, e.now)
	}
	lo := MaxTime
	for k, b := range e.buckets {
		if k == 0 {
			b = b[e.head:]
		}
		if (len(b) > 0) != (e.mask&(1<<k) != 0) {
			t.Fatalf("bucket %d holds %d entries, mask %#x", k, len(b), e.mask)
		}
		for i, x := range b {
			if got := bits.Len64(uint64(x.at ^ e.last)); got != k {
				t.Fatalf("entry due %v in bucket %d, belongs in %d (floor %v)", x.at, k, got, e.last)
			}
			if k == 0 && i > 0 && !e.tieLess(b[i-1].slot, x.slot) {
				t.Fatalf("bucket 0 out of tie-key order at %d", i)
			}
			lo = min(lo, x.at)
		}
	}
	if e.minAt >= 0 && e.minAt != lo {
		t.Fatalf("cached earliest %v, true earliest %v", e.minAt, lo)
	}
}

// Property: whatever mix of pushes — At, AtCall, proc wake-ups, injections
// stamped as another shard's posts (see pushAt) — and pops,
// every executed event is the minimum of the pending set by the full
// (at, sched, psched, gsched, src, seq) key, so the final drain equals a
// sort by that key. Two input sets: delays of a few nanoseconds, popped one
// Step at a time, where equal due times are the rule; and delays across
// every bucket level, where RunUntil stops at random deadlines and pushes
// from outside land before the earliest pending entry.
func TestPropertyHeapOrder(t *testing.T) {
	for _, in := range []struct {
		name  string
		delay func(*Rand) Time
		stops bool
	}{{"ties", tieDelays, false}, {"levels", levelDelays, true}} {
		for seed := uint64(1); seed <= 40; seed++ {
			e := NewEngine()
			m := &orderModel{t: t, e: e, rng: NewRand(seed), delay: in.delay, pending: map[int64]orderKey{}, budget: 600}
			for i := 0; i < 3; i++ {
				id := m.id()
				e.Spawn("sleeper", m.sleeper(id, 20))
				m.pending[id] = m.stamped(e.now, e.seq)
			}
			for {
				for n := m.rng.Intn(4); n > 0 && m.budget > 0; n-- {
					m.push()
				}
				checkQueue(t, e)
				if e.Pending() != len(m.pending) {
					t.Fatalf("%s seed %d: engine holds %d events, model %d", in.name, seed, e.Pending(), len(m.pending))
				}
				if e.Pending() == 0 {
					break
				}
				if in.stops && m.rng.Intn(2) == 0 {
					m.runUntil(seed)
					continue
				}
				want := m.minPending()
				if !e.Step() {
					t.Fatalf("%s seed %d: Step found no event, model has %d", in.name, seed, len(m.pending))
				}
				if got := m.fired[len(m.fired)-1]; got != want {
					t.Fatalf("%s seed %d: step %d executed event %d, want %d (key %+v) at %v",
						in.name, seed, len(m.fired), got, want, m.pending[want], e.Now())
				}
			}
			if e.Parked() != 0 || e.ProcsFinished() != 3 {
				t.Fatalf("%s seed %d: procs parked=%d finished=%d", in.name, seed, e.Parked(), e.ProcsFinished())
			}
			if len(m.fired) != int(m.nextID) {
				t.Fatalf("%s seed %d: executed %d of %d events", in.name, seed, len(m.fired), m.nextID)
			}
		}
	}
}
