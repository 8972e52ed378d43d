package sim

import (
	"strings"
	"testing"
)

func TestProcSleepSequence(t *testing.T) {
	e := NewEngine()
	var marks []Time
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Millisecond)
			marks = append(marks, p.Now())
		}
	})
	e.Run()
	want := []Time{10 * Millisecond, 20 * Millisecond, 30 * Millisecond}
	if len(marks) != 3 {
		t.Fatalf("marks = %v", marks)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks[%d] = %v, want %v", i, marks[i], want[i])
		}
	}
	if e.Parked() != 0 {
		t.Fatalf("parked procs remain: %d", e.Parked())
	}
	if e.ProcsFinished() != 1 {
		t.Fatalf("finished = %d", e.ProcsFinished())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(5)
					log = append(log, name)
				}
			})
		}
		e.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatal("nondeterministic length")
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving at %d: %v vs %v", i, first, again)
			}
		}
	}
	// Same-time wakes should be FIFO by spawn order: a b c a b c a b c.
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine()
	var s Signal
	woke := 0
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Proc) {
			p.Await(&s)
			woke++
			if p.Now() != 42 {
				t.Errorf("woke at %v, want 42", p.Now())
			}
		})
	}
	e.Schedule(42, func() { s.Fire(e) })
	e.Run()
	if woke != 4 {
		t.Fatalf("woke = %d, want 4", woke)
	}
	// Await after fire returns immediately.
	done := false
	e.Spawn("late", func(p *Proc) {
		p.Await(&s)
		done = true
	})
	e.Run()
	if !done {
		t.Fatal("late waiter did not pass fired signal")
	}
}

func TestSignalOnFire(t *testing.T) {
	e := NewEngine()
	var s Signal
	calls := 0
	s.OnFire(e, func() { calls++ })
	e.Schedule(5, func() { s.Fire(e) })
	e.Run()
	s.OnFire(e, func() { calls++ }) // after fire: scheduled immediately
	e.Run()
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	s.Fire(e) // double fire is a no-op
	e.Run()
	if calls != 2 {
		t.Fatalf("double-fire changed calls: %d", calls)
	}
}

func TestGate(t *testing.T) {
	e := NewEngine()
	g := NewGate(3)
	opened := Time(-1)
	e.Spawn("waiter", func(p *Proc) {
		g.Wait(p)
		opened = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := Time(i) * 10
		e.Schedule(d, func() { g.Done(e) })
	}
	e.Run()
	if opened != 30 {
		t.Fatalf("gate opened at %v, want 30", opened)
	}
	if !g.Opened() {
		t.Fatal("gate should report opened")
	}
}

func TestGateAddAfterOpenPanics(t *testing.T) {
	e := NewEngine()
	g := NewGate(1)
	g.Done(e)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic adding to opened gate")
		}
	}()
	g.Add(1)
}

func TestSemaphoreFIFOAndBounds(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(2)
	inFlight, maxInFlight := 0, 0
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		e.Spawn("u", func(p *Proc) {
			s.Acquire(p)
			order = append(order, i)
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			p.Sleep(10)
			inFlight--
			s.Release()
		})
	}
	e.Run()
	if maxInFlight != 2 {
		t.Fatalf("max in flight = %d, want 2", maxInFlight)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("non-FIFO acquisition order: %v", order)
		}
	}
	if s.Available() != 2 || s.Waiting() != 0 {
		t.Fatalf("final state avail=%d waiting=%d", s.Available(), s.Waiting())
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(1)
	if !s.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if s.TryAcquire() {
		t.Fatal("second TryAcquire should fail")
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("TryAcquire after release failed")
	}
	_ = e
}

// TestProcPanicReachesCaller pins that a panic in a proc body, which runs
// on its own goroutine, reaches the caller of Run with the proc's name.
func TestProcPanicReachesCaller(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(3)
		panic("boom")
	})
	defer func() {
		v := recover()
		if msg, _ := v.(string); !strings.Contains(msg, `"p"`) || !strings.Contains(msg, "boom") {
			t.Fatalf("recovered %v, want a panic naming proc \"p\" and boom", v)
		}
		if e.Now() != 3 {
			t.Fatalf("now = %v, want 3", e.Now())
		}
	}()
	e.Run()
}

func TestSpawnAt(t *testing.T) {
	e := NewEngine()
	var started Time
	e.SpawnAt(25, "late", func(p *Proc) { started = p.Now() })
	e.Run()
	if started != 25 {
		t.Fatalf("started = %v, want 25", started)
	}
}

func TestProcYield(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Spawn("a", func(p *Proc) {
		log = append(log, "a1")
		p.Yield()
		log = append(log, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		log = append(log, "b1")
	})
	e.Run()
	// a starts first, yields; b runs; a resumes.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestManyProcsNoLeak(t *testing.T) {
	e := NewEngine()
	const n = 1000
	g := NewGate(n)
	for i := 0; i < n; i++ {
		e.Spawn("p", func(p *Proc) {
			p.Sleep(Time(1))
			g.Done(e)
		})
	}
	e.Run()
	if !g.Opened() {
		t.Fatal("not all procs finished")
	}
	if e.ProcsFinished() != n {
		t.Fatalf("finished = %d, want %d", e.ProcsFinished(), n)
	}
	if e.Parked() != 0 {
		t.Fatalf("parked = %d, want 0", e.Parked())
	}
}
