package sim

import "testing"

// These tests pin the kernel's zero-allocation invariants: once the event
// queue and waiter rings have reached steady-state capacity, executing
// events — closures, Target calls, and the whole Sleep/wake proc path —
// allocates nothing. The figure campaigns replay millions of these events,
// so a regression here is a performance bug even though nothing breaks
// functionally; testing.AllocsPerRun catches it deterministically where a
// benchmark's B/op would only drift.

// standingDepths are the queue depths the event-loop tests run at: a lone
// pending event, and a standing queue of 256 far-future events like the
// campaigns keep (the Figure 2 campaign averages 174 pending), where every
// pop frees a slab slot and the next push must reuse it from the free list.
var standingDepths = []int{0, 256}

// standQueue parks depth no-op events an hour ahead so they stay pending
// while the measured events run in front of them.
func standQueue(e *Engine, depth int) {
	for i := 0; i < depth; i++ {
		e.Schedule(Hour+Time(i), func() {})
	}
}

// bucketCaps returns every queue bucket's capacity.
func bucketCaps(e *Engine) (caps [len(Engine{}.buckets)]int) {
	for k, b := range e.buckets {
		caps[k] = cap(b)
	}
	return caps
}

// checkBucketCaps reports every bucket whose capacity grew from was.
func checkBucketCaps(t *testing.T, depth int, e *Engine, was [len(Engine{}.buckets)]int) {
	t.Helper()
	for k, c := range bucketCaps(e) {
		if c != was[k] {
			t.Errorf("depth %d: bucket %d grew from %d to %d entries", depth, k, was[k], c)
		}
	}
}

func TestEventLoopZeroAlloc(t *testing.T) {
	for _, depth := range standingDepths {
		e := NewEngine()
		standQueue(e, depth)
		fn := func() {}
		// Prime the queue and slab so steady state starts with capacity.
		e.Schedule(0, fn)
		e.RunUntil(e.Now())
		slab, caps := len(e.slots), bucketCaps(e)
		if avg := testing.AllocsPerRun(1000, func() {
			e.Schedule(Microsecond, fn)
			e.RunUntil(e.Now() + Microsecond)
		}); avg != 0 {
			t.Errorf("depth %d: event loop allocates %.1f objects per schedule+run, want 0", depth, avg)
		}
		// AllocsPerRun rounds down, so amortized slab or bucket growth
		// would hide behind a 0; a reused slot leaves the slab as it was,
		// and a drained bucket keeps its array.
		if len(e.slots) != slab {
			t.Errorf("depth %d: slab grew from %d to %d slots; freed slots are not reused", depth, slab, len(e.slots))
		}
		checkBucketCaps(t, depth, e, caps)
		if e.Pending() != depth {
			t.Fatalf("depth %d: %d events pending after the runs", depth, e.Pending())
		}
	}
}

type countTarget struct{ n int64 }

func (c *countTarget) OnEvent(op uint32, a, b int64) { c.n += a }

func TestScheduleCallZeroAlloc(t *testing.T) {
	for _, depth := range standingDepths {
		e := NewEngine()
		standQueue(e, depth)
		tgt := &countTarget{}
		e.ScheduleCall(0, tgt, 0, 1, 0)
		e.RunUntil(e.Now())
		slab, caps := len(e.slots), bucketCaps(e)
		if avg := testing.AllocsPerRun(1000, func() {
			e.ScheduleCall(Microsecond, tgt, 0, 1, 0)
			e.RunUntil(e.Now() + Microsecond)
		}); avg != 0 {
			t.Errorf("depth %d: ScheduleCall path allocates %.1f objects per event, want 0", depth, avg)
		}
		if len(e.slots) != slab {
			t.Errorf("depth %d: slab grew from %d to %d slots; freed slots are not reused", depth, slab, len(e.slots))
		}
		checkBucketCaps(t, depth, e, caps)
		if tgt.n != 1001+1 { // warmup run + 1000 measured + priming call
			t.Fatalf("depth %d: target ran %d times", depth, tgt.n)
		}
		if e.Pending() != depth {
			t.Fatalf("depth %d: %d events pending after the runs", depth, e.Pending())
		}
	}
}

func TestLineSendCallZeroAlloc(t *testing.T) {
	e := NewEngine()
	l := NewLine(e, 1e9)
	tgt := &countTarget{}
	l.SendCall(1<<10, tgt, 0, 1, 0)
	e.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		l.SendCall(1<<10, tgt, 0, 1, 0)
		e.Run()
	}); avg != 0 {
		t.Errorf("Line.SendCall path allocates %.1f objects per transfer, want 0", avg)
	}
}

// TestSleepWakeZeroAlloc drives one proc through a full park/wake/sleep
// cycle per iteration: Semaphore.Release dequeues it from the waiter ring,
// the resume event rides the queue's *Proc arm, the proc sleeps once and
// parks again on Acquire. None of it may allocate.
func TestSleepWakeZeroAlloc(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(0)
	stop := false
	e.Spawn("sleeper", func(p *Proc) {
		for !stop {
			s.Acquire(p)
			p.Sleep(Microsecond)
		}
	})
	e.Run() // proc is now parked on Acquire; ring and queue are primed

	if avg := testing.AllocsPerRun(1000, func() {
		s.Release()
		e.Run()
	}); avg != 0 {
		t.Errorf("Sleep/wake cycle allocates %.1f objects, want 0", avg)
	}

	stop = true
	s.Release()
	e.Run()
	if e.Parked() != 0 || e.ProcsFinished() != 1 {
		t.Fatalf("proc did not finish cleanly: parked=%d finished=%d", e.Parked(), e.ProcsFinished())
	}
}

// TestWaitqFIFO exercises the ring buffer across wraparound and growth.
func TestWaitqFIFO(t *testing.T) {
	var q waitq
	mk := func(i int) *Proc { return &Proc{name: string(rune('a' + i))} }
	procs := make([]*Proc, 40)
	for i := range procs {
		procs[i] = mk(i)
	}
	// Interleave pushes and pops so head wraps several times while the
	// ring grows from 8 to 32.
	next := 0
	for i := 0; i < len(procs); i++ {
		q.push(procs[i])
		if i%3 == 2 {
			if got := q.pop(); got != procs[next] {
				t.Fatalf("pop %d: got %q want %q", next, got.name, procs[next].name)
			}
			next++
		}
	}
	for q.len() > 0 {
		if got := q.pop(); got != procs[next] {
			t.Fatalf("drain pop %d: got %q want %q", next, got.name, procs[next].name)
		}
		next++
	}
	if next != len(procs) {
		t.Fatalf("popped %d procs, want %d", next, len(procs))
	}
}
