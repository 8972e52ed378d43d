package sim

import (
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
// src, seq), as the heap-order model records it at push time.
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
	pending map[int64]orderKey
	fired   []int64
	budget  int // pushes left; bounds the run
	nextID  int64
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

// push schedules one event through a randomly chosen path — At, AtCall, or
// a pushRaw injection with arbitrary ancestry and shard stamps — due within
// a few nanoseconds of now, so equal due times are the common case.
func (m *orderModel) push() {
	e := m.e
	at := e.now + Time(m.rng.Intn(4))
	id := m.id()
	switch m.rng.Intn(3) {
	case 0:
		e.At(at, func() { m.fire(id) })
		m.pending[id] = m.stamped(at, e.seq)
	case 1:
		e.AtCall(at, m, 0, id, 0)
		m.pending[id] = m.stamped(at, e.seq)
	default:
		k := orderKey{
			at:     at,
			sched:  Time(m.rng.Intn(3)),
			psched: Time(m.rng.Intn(3)),
			gsched: Time(m.rng.Intn(3)),
			src:    uint32(m.rng.Intn(3)),
		}
		e.pushRaw(event{at: k.at, sched: k.sched, psched: k.psched, gsched: k.gsched, src: k.src, fn: func() { m.fire(id) }})
		k.seq = e.seq
		m.pending[id] = k
	}
}

func (m *orderModel) OnEvent(op uint32, a, b int64) { m.fire(a) }

// fire runs as event id executes: it checks the clock, records the
// execution and sometimes schedules follow-ups from inside the event.
func (m *orderModel) fire(id int64) {
	k, ok := m.pending[id]
	if !ok {
		m.t.Fatalf("event %d executed but not pending", id)
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

// sleeper is a proc body that repeatedly sleeps a random 0–3 ns, so its
// resumptions ride the proc-wake path with their own ancestry stamps.
func (m *orderModel) sleeper(startID int64, rounds int) func(*Proc) {
	return func(p *Proc) {
		m.fire(startID)
		for i := 0; i < rounds; i++ {
			d := Time(m.rng.Intn(4))
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

// Property: whatever mix of pushes — At, AtCall, proc wake-ups, raw
// injections with arbitrary (sched, psched, gsched, src) stamps — and pops,
// every executed event is the minimum of the pending set by the full
// (at, sched, psched, gsched, src, seq) key, so the final drain equals a
// sort by that key.
func TestPropertyHeapOrder(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		e := NewEngine()
		m := &orderModel{t: t, e: e, rng: NewRand(seed), pending: map[int64]orderKey{}, budget: 600}
		for i := 0; i < 3; i++ {
			id := m.id()
			e.Spawn("sleeper", m.sleeper(id, 20))
			m.pending[id] = m.stamped(e.now, e.seq)
		}
		for {
			for n := m.rng.Intn(4); n > 0 && m.budget > 0; n-- {
				m.push()
			}
			if e.Pending() != len(m.pending) {
				t.Fatalf("seed %d: engine holds %d events, model %d", seed, e.Pending(), len(m.pending))
			}
			if e.Pending() == 0 {
				break
			}
			want := m.minPending()
			if !e.Step() {
				t.Fatalf("seed %d: Step found no event, model has %d", seed, len(m.pending))
			}
			if got := m.fired[len(m.fired)-1]; got != want {
				t.Fatalf("seed %d: step %d executed event %d, want %d (key %+v) at %v",
					seed, len(m.fired), got, want, m.pending[want], e.Now())
			}
		}
		if e.Parked() != 0 || e.ProcsFinished() != 3 {
			t.Fatalf("seed %d: procs parked=%d finished=%d", seed, e.Parked(), e.ProcsFinished())
		}
		if len(m.fired) != int(m.nextID) {
			t.Fatalf("seed %d: executed %d of %d events", seed, len(m.fired), m.nextID)
		}
	}
}
