package core

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// deltaSpecForTest is a small but non-trivial δ-graph: overlapping and
// non-overlapping points, both signs, on a platform with real contention.
func deltaSpecForTest() DeltaSpec {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	return DeltaSpec{Cfg: cfg, Apps: apps, Deltas: Deltas(2, 5, 30)}
}

func TestRunnerMatchesSerial(t *testing.T) {
	spec := deltaSpecForTest()
	want := RunDelta(spec)
	for _, par := range []int{0, 1, 2, 4, 16} {
		got := Runner{Parallelism: par}.RunDelta(spec)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Parallelism=%d diverged from serial path:\nserial   %+v\nparallel %+v",
				par, want, got)
		}
	}
}

func TestRunDeltasMatchesSerial(t *testing.T) {
	// Two different specs through one flattened pool, against serial runs.
	a := deltaSpecForTest()
	b := deltaSpecForTest()
	b.Cfg.Backend = cluster.HDD
	b.Deltas = Deltas(10)
	want := []*DeltaGraph{RunDelta(a), RunDelta(b)}
	got := Runner{Parallelism: 4}.RunDeltas([]DeltaSpec{a, b})
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("RunDeltas diverged from serial path")
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	const n = 1000
	var counts [n]int32
	Runner{Parallelism: 8}.ForEach(n, func(i int) {
		atomic.AddInt32(&counts[i], 1)
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const par = 3
	var inFlight, peak int32
	Runner{Parallelism: par}.ForEach(200, func(int) {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if cur <= p || atomic.CompareAndSwapInt32(&peak, p, cur) {
				break
			}
		}
		atomic.AddInt32(&inFlight, -1)
	})
	if peak > par {
		t.Fatalf("observed %d concurrent tasks, pool bound is %d", peak, par)
	}
}

func TestForEachSerialRunsInOrder(t *testing.T) {
	var got []int
	Runner{Parallelism: 1}.ForEach(5, func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("serial pool order = %v", got)
	}
}

func TestForEachEdgeCases(t *testing.T) {
	ran := false
	Runner{}.ForEach(0, func(int) { ran = true })
	Runner{}.ForEach(-3, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for n <= 0")
	}
	n := 0
	Runner{Parallelism: 64}.ForEach(1, func(int) { n++ })
	if n != 1 {
		t.Fatalf("single task ran %d times", n)
	}
}

// TestForEachPanicReachesCaller pins that a panicking task surfaces on the
// calling goroutine at every pool size. A panic left on a worker goroutine
// would end the process before any recover of the caller could run.
func TestForEachPanicReachesCaller(t *testing.T) {
	for _, par := range []int{1, 4} {
		got := func() (v any) {
			defer func() { v = recover() }()
			Runner{Parallelism: par}.ForEach(100, func(i int) {
				if i == 7 {
					panic("task 7")
				}
			})
			return nil
		}()
		if got != "task 7" {
			t.Fatalf("Parallelism=%d: recovered %v, want the task's panic value", par, got)
		}
	}
}

// TestRunnerDiagIdentical pins down that even the diagnostic counters —
// the most scheduling-sensitive outputs — match the serial path exactly.
func TestRunnerDiagIdentical(t *testing.T) {
	cfg := tinyConfig(cluster.HDD, pfs.SyncOn)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	spec := DeltaSpec{Cfg: cfg, Apps: apps, Deltas: []sim.Time{0}}
	want := RunDelta(spec).Points[0].Diag
	got := Runner{Parallelism: 4}.RunDelta(spec).Points[0].Diag
	if want != got {
		t.Fatalf("diagnostics diverged: serial %+v parallel %+v", want, got)
	}
}
