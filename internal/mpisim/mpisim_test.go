package mpisim

import (
	"testing"

	"repro/internal/sim"
)

func TestBarrierReleasesTogether(t *testing.T) {
	e := sim.NewEngine()
	b := NewBarrier(4)
	var releases []sim.Time
	for i := 0; i < 4; i++ {
		d := sim.Time(i) * 10 * sim.Millisecond
		e.Spawn("r", func(p *sim.Proc) {
			p.Sleep(d)
			b.Wait(p)
			releases = append(releases, p.Now())
		})
	}
	e.Run()
	if len(releases) != 4 {
		t.Fatalf("releases = %v", releases)
	}
	for _, r := range releases {
		if r != 30*sim.Millisecond {
			t.Fatalf("release at %v, want 30ms (last arrival)", r)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	e := sim.NewEngine()
	b := NewBarrier(2)
	counts := [2]int{}
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("r", func(p *sim.Proc) {
			for round := 0; round < 5; round++ {
				p.Sleep(sim.Time(i+1) * sim.Millisecond)
				b.Wait(p)
				counts[i]++
			}
		})
	}
	e.Run()
	if counts[0] != 5 || counts[1] != 5 {
		t.Fatalf("rounds = %v", counts)
	}
}

func TestPhaseTimerMeasuresCollectivePhase(t *testing.T) {
	e := sim.NewEngine()
	pt := NewPhaseTimer(e, 3)
	// Ranks arrive staggered, work for different durations.
	work := []sim.Time{50, 20, 80} // ms
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("r", func(p *sim.Proc) {
			p.Sleep(sim.Time(i) * 5 * sim.Millisecond) // staggered arrival
			pt.Enter(p)
			p.Sleep(work[i] * sim.Millisecond)
			pt.Done()
		})
	}
	e.Run()
	if !pt.Finished() {
		t.Fatal("phase not finished")
	}
	// Start at last arrival (10ms), end at start+80ms.
	if pt.Start() != 10*sim.Millisecond {
		t.Fatalf("start = %v", pt.Start())
	}
	if pt.Elapsed() != 80*sim.Millisecond {
		t.Fatalf("elapsed = %v, want 80ms", pt.Elapsed())
	}
}

func TestNewBarrierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBarrier(0)
}
