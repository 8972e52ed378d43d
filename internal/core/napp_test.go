package core

// Tests for the N-application generalization of the δ-graph core: the
// degenerate sizes (N=1, N=2) must reduce exactly to the paper's
// two-application semantics, and larger sets must stay deterministic
// through the worker pool.

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// TestSingleAppReducesToAlone: a one-app δ-graph is the alone run at every
// δ — IF exactly 1, elapsed exactly the baseline (δ shifts only trailing
// apps, and there are none).
func TestSingleAppReducesToAlone(t *testing.T) {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())[:1]
	g := RunDelta(DeltaSpec{Cfg: cfg, Apps: apps, Deltas: Deltas(5)})
	if len(g.Alone) != 1 {
		t.Fatalf("alone vector has %d entries", len(g.Alone))
	}
	for _, p := range g.Points {
		if p.Elapsed[0] != g.Alone[0] {
			t.Fatalf("δ=%v: elapsed %v != alone %v", p.Delta, p.Elapsed[0], g.Alone[0])
		}
		if p.IF[0] != 1 {
			t.Fatalf("δ=%v: IF %v, want exactly 1", p.Delta, p.IF[0])
		}
	}
}

// TestTwoAppPointMatchesLegacy pins the N-app start rule to the paper's
// original two-app semantics: positive δ delays B, negative δ delays A,
// the earliest app starting at 0.
func TestTwoAppPointMatchesLegacy(t *testing.T) {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	for _, d := range []sim.Time{0, 5 * sim.Second, -5 * sim.Second} {
		g := RunDelta(DeltaSpec{Cfg: cfg, Apps: apps, Deltas: []sim.Time{d}})

		// The legacy rule, inlined.
		a, b := apps[0], apps[1]
		if d >= 0 {
			a.Start, b.Start = 0, d
		} else {
			a.Start, b.Start = -d, 0
		}
		res := Prepare(cfg, []AppSpec{a, b}).Run()

		p := g.Points[0]
		for i := 0; i < 2; i++ {
			if p.Elapsed[i] != res.Apps[i].Elapsed {
				t.Fatalf("δ=%v app %d: N-app core %v != legacy %v",
					d, i, p.Elapsed[i], res.Apps[i].Elapsed)
			}
		}
		if p.Diag != res.Diag {
			t.Fatalf("δ=%v: diagnostics diverged from legacy semantics", d)
		}
	}
}

// threeAppSpecForTest builds a 3-app spec with staggered offsets on a
// contended platform.
func threeAppSpecForTest() DeltaSpec {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	cfg.ComputeNodes = 6
	apps := AppSpecs(cfg, 3, 8, 4, tinyWorkload())
	return DeltaSpec{
		Cfg:          cfg,
		Apps:         apps,
		StartOffsets: []sim.Time{0, sim.Second, 2 * sim.Second},
		Deltas:       Deltas(2, 30),
	}
}

// TestThreeAppRunnerMatchesSerial: the worker pool must reproduce the
// serial reference bit-for-bit for N=3 with start offsets, at every
// parallelism level.
func TestThreeAppRunnerMatchesSerial(t *testing.T) {
	spec := threeAppSpecForTest()
	want := RunDelta(spec)
	if len(want.Alone) != 3 {
		t.Fatalf("alone vector has %d entries", len(want.Alone))
	}
	for _, par := range []int{0, 1, 2, 4, 16} {
		got := Runner{Parallelism: par}.RunDelta(spec)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Parallelism=%d diverged from serial path", par)
		}
	}
}

// TestThreeAppInterferenceExceedsPairwise: at δ=0 three identical apps must
// each see at least as much interference as two do — the pile-up an N-app
// engine exists to measure.
func TestThreeAppInterferenceExceedsPairwise(t *testing.T) {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	cfg.ComputeNodes = 6
	wl := tinyWorkload()
	wl.BlockBytes = 16 << 20
	three := AppSpecs(cfg, 3, 8, 4, wl)
	gTwo := RunDelta(DeltaSpec{Cfg: cfg, Apps: three[:2], Deltas: []sim.Time{0}})
	gThree := RunDelta(DeltaSpec{Cfg: cfg, Apps: three, Deltas: []sim.Time{0}})
	if two, threeIF := gTwo.Points[0].IF[0], gThree.Points[0].IF[0]; threeIF < two*1.1 {
		t.Fatalf("three-way IF %.2f not clearly above two-way %.2f", threeIF, two)
	}
}

// TestStartOffsetsShiftStarts verifies the offset rule through observable
// results: a spec whose only difference is a fixed offset on the leading
// app must equal a δ shift of the same magnitude on the trailing app.
func TestStartOffsetsShiftStarts(t *testing.T) {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	// Offset A by +3s with δ=0 ≡ legacy δ=-3s (B first, A 3s later).
	gOff := RunDelta(DeltaSpec{
		Cfg: cfg, Apps: apps,
		StartOffsets: []sim.Time{3 * sim.Second, 0},
		Deltas:       []sim.Time{0},
	})
	gDelta := RunDelta(DeltaSpec{Cfg: cfg, Apps: apps, Deltas: []sim.Time{-3 * sim.Second}})
	if !reflect.DeepEqual(gOff.Points[0].Elapsed, gDelta.Points[0].Elapsed) {
		t.Fatalf("offset run %v != equivalent δ run %v",
			gOff.Points[0].Elapsed, gDelta.Points[0].Elapsed)
	}
}

// TestPointRecordsStarts: every δ point carries the normalized start
// vector it actually ran with, and Unfairness orders roles by it — at a
// negative δ an offset-staggered trailing app can still start after app 0.
func TestPointRecordsStarts(t *testing.T) {
	spec := threeAppSpecForTest() // offsets 0s, 1s, 2s
	d := -1500 * sim.Millisecond
	g := RunDelta(DeltaSpec{Cfg: spec.Cfg, Apps: spec.Apps,
		StartOffsets: spec.StartOffsets, Deltas: []sim.Time{d}})
	p := g.Points[0]
	// Raw starts: [0, -0.5s, 0.5s] → normalized [0.5s, 0, 1s].
	want := []sim.Time{500 * sim.Millisecond, 0, sim.Second}
	if !reflect.DeepEqual(p.Start, want) {
		t.Fatalf("recorded starts %v, want %v", p.Start, want)
	}
	// App 2 starts after app 0 even though δ < 0: the (0,2) pair must
	// order app 0 first.
	if first, second, ok := p.order(0, 2); !ok || first != 0 || second != 2 {
		t.Fatalf("order(0,2) = (%d,%d,%v), want app 0 first", first, second, ok)
	}
	// And app 1 before app 0.
	if first, _, ok := p.order(0, 1); !ok || first != 1 {
		t.Fatalf("order(0,1): app 1 started earliest")
	}
}

// TestDeltaSpecValidatePanics: structurally broken specs fail loudly, like
// Prepare does on bad AppSpecs.
func TestDeltaSpecValidatePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	expectPanic("no apps", func() {
		RunDelta(DeltaSpec{Cfg: cfg, Deltas: []sim.Time{0}})
	})
	expectPanic("offset length mismatch", func() {
		RunDelta(DeltaSpec{Cfg: cfg, Apps: apps,
			StartOffsets: []sim.Time{0}, Deltas: []sim.Time{0}})
	})
	// B equals A but lies beyond the platform: it shares A's baseline and,
	// with no δ point, is in no co-run, yet it is still rejected.
	expectPanic("shared baseline off the platform", func() {
		bad := append([]AppSpec(nil), apps...)
		bad[1].FirstNode = cfg.ComputeNodes
		RunDelta(DeltaSpec{Cfg: cfg, Apps: bad})
	})
}

// TestRunPairwiseMatrix holds RunDeltaPairwise to direct runs on three apps
// of different burst sizes, at pool sizes 1 and 8: every alone baseline,
// every δ point's starts, elapsed times, throughputs and diagnostics, and
// every matrix cell must equal its own Prepare(…).Run(), outside the
// Runner; the diagonal is exactly 1.
func TestRunPairwiseMatrix(t *testing.T) {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	cfg.ComputeNodes = 6
	apps := AppSpecs(cfg, 3, 8, 4, tinyWorkload())
	for i := range apps {
		apps[i].Workload.BlockBytes = int64(16+8*i) << 20
	}
	spec := DeltaSpec{Cfg: cfg, Apps: apps, Deltas: Deltas(2)}

	alone := make([]sim.Time, len(apps))
	for i, a := range apps {
		alone[i] = Prepare(cfg, []AppSpec{a}).Run().Apps[0].Elapsed
	}
	points := make([]RunResult, len(spec.Deltas))
	starts := make([][]sim.Time, len(spec.Deltas))
	for k, d := range spec.Deltas {
		// δ shifts apps 1 and 2 against app 0; the earliest starts at 0.
		starts[k] = []sim.Time{0, d, d}
		if d < 0 {
			starts[k] = []sim.Time{-d, 0, 0}
		}
		co := append([]AppSpec(nil), apps...)
		for i := range co {
			co[i].Start = starts[k][i]
		}
		points[k] = Prepare(cfg, co).Run()
	}
	cell := make([][]float64, len(apps))
	for i := range apps {
		cell[i] = make([]float64, len(apps))
		cell[i][i] = 1
	}
	for i := range apps {
		for j := i + 1; j < len(apps); j++ {
			res := Prepare(cfg, []AppSpec{apps[i], apps[j]}).Run()
			cell[i][j] = float64(res.Apps[0].Elapsed) / float64(alone[i])
			cell[j][i] = float64(res.Apps[1].Elapsed) / float64(alone[j])
		}
	}

	var firstG *DeltaGraph
	var first *IFMatrix
	for _, par := range []int{1, 8} {
		g, m := Runner{Parallelism: par}.RunDeltaPairwise(spec)
		if !reflect.DeepEqual(g.Alone, alone) || !reflect.DeepEqual(m.Alone, alone) {
			t.Fatalf("par %d: baselines %v and %v, want %v from direct runs", par, g.Alone, m.Alone, alone)
		}
		for k, pt := range g.Points {
			want := points[k]
			if pt.Delta != spec.Deltas[k] || !reflect.DeepEqual(pt.Start, starts[k]) {
				t.Fatalf("par %d point %d: δ %v starts %v, want %v %v", par, k, pt.Delta, pt.Start, spec.Deltas[k], starts[k])
			}
			for i := range apps {
				if pt.Elapsed[i] != want.Apps[i].Elapsed || pt.Throughput[i] != want.Apps[i].Throughput {
					t.Fatalf("par %d δ=%v app %d: elapsed %v throughput %v, want %v %v from the direct run",
						par, pt.Delta, i, pt.Elapsed[i], pt.Throughput[i], want.Apps[i].Elapsed, want.Apps[i].Throughput)
				}
			}
			if pt.Diag != want.Diag {
				t.Fatalf("par %d δ=%v: diagnostics %+v, want %+v from the direct run", par, pt.Delta, pt.Diag, want.Diag)
			}
		}
		if m.Dim() != len(apps) || !reflect.DeepEqual(m.Cell, cell) {
			t.Fatalf("par %d: cells %v, want %v from direct runs", par, m.Cell, cell)
		}
		if first == nil {
			firstG, first = g, m
		} else if !reflect.DeepEqual(firstG, g) || !reflect.DeepEqual(first, m) {
			t.Fatalf("δ-graph or matrix diverged across pool sizes")
		}
	}

	if first.Cell[0][1] < 1.2 {
		t.Fatalf("apps at δ=0 should interfere, IF = %v", first.Cell[0][1])
	}
	v, ag, f := first.Peak()
	if f < 1.2 || v == ag {
		t.Fatalf("peak = (%d, %d, %v)", v, ag, f)
	}
}
