package core

// Tests for the fleet summarizer: shape-deduplicated baselines are only
// sound if an alone run ignores placement, the whole result must be
// bit-identical across Runner parallelism and shard counts, and the IFs
// must agree with the exhaustive δ-graph path on sets small enough to
// afford both.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fleetSpecForTest builds a 6-app heterogeneous spec with two workload
// shapes and staggered arrivals on a contended platform. App t2 writes the
// big shape as a one-phase program instead of a single burst: the same
// shape either way.
func fleetSpecForTest() DeltaSpec {
	cfg := tinyConfig(cluster.HDD, pfs.SyncOn)
	cfg.ComputeNodes = 12
	big := tinyWorkload()
	small := workload.Spec{Pattern: workload.Strided, BlockBytes: 1 << 20, TransferSize: 64 << 10}
	apps := make([]AppSpec, 6)
	offsets := make([]sim.Time, 6)
	for i := range apps {
		wl := big
		if i%2 == 1 {
			wl = small
		}
		apps[i] = AppSpec{
			Name:         fmt.Sprintf("t%d", i),
			Procs:        4,
			FirstNode:    i * 2,
			ProcsPerNode: 2,
			Workload:     wl,
		}
		offsets[i] = sim.Time(i) * sim.Second / 2
	}
	apps[2].Workload, apps[2].Program = workload.Spec{}, workload.Single(big)
	return DeltaSpec{Cfg: cfg, Apps: apps, StartOffsets: offsets}
}

// TestAloneIgnoresPlacement guards the assumption shape dedup rests on: an
// application running alone on an idle platform finishes in the same time
// wherever its node block sits.
func TestAloneIgnoresPlacement(t *testing.T) {
	cfg := tinyConfig(cluster.HDD, pfs.SyncOn)
	cfg.ComputeNodes = 64
	for _, first := range []int{0, 17, 62} {
		app := AppSpec{Name: "A", Procs: 4, FirstNode: first, ProcsPerNode: 2, Workload: tinyWorkload()}
		res := Prepare(cfg, []AppSpec{app}).Run()
		ref := app
		ref.FirstNode = 0
		want := Prepare(cfg, []AppSpec{ref}).Run()
		if res.Apps[0].Elapsed != want.Apps[0].Elapsed {
			t.Fatalf("node %d: alone elapsed %v != node 0's %v",
				first, res.Apps[0].Elapsed, want.Apps[0].Elapsed)
		}
	}
}

// TestFleetDedupsShapes: 6 apps of 2 workload shapes collapse to 2 alone
// baselines, with every app mapped to the right one, whichever form its
// burst is written in.
func TestFleetDedupsShapes(t *testing.T) {
	spec := fleetSpecForTest()
	f := Runner{Parallelism: 1}.RunFleet(spec, FleetOpts{})
	if f.Shapes != 2 || len(f.Alone) != 2 {
		t.Fatalf("6 apps of 2 shapes produced %d baselines", f.Shapes)
	}
	for i := range spec.Apps {
		if f.ShapeOf[i] != i%2 {
			t.Fatalf("app %d mapped to shape %d", i, f.ShapeOf[i])
		}
		if f.AloneOf(i) <= 0 {
			t.Fatalf("app %d has no baseline", i)
		}
	}
}

// TestFleetMatchesDeltaGraph: on a set small enough to afford the
// exhaustive path, the fleet co-run IFs must equal the δ=0 point of the
// same spec (alone baselines computed per app, at the app's own placement —
// equality also re-checks placement immateriality end to end).
func TestFleetMatchesDeltaGraph(t *testing.T) {
	spec := fleetSpecForTest()
	spec.Deltas = []sim.Time{0}
	f := Runner{Parallelism: 1}.RunFleet(spec, FleetOpts{})
	g := RunDelta(spec)
	p := g.Points[0]
	for i := range spec.Apps {
		if f.CoRun.Apps[i].Elapsed != p.Elapsed[i] {
			t.Fatalf("app %d: fleet co-run %v != δ=0 point %v", i, f.CoRun.Apps[i].Elapsed, p.Elapsed[i])
		}
		if f.AloneOf(i) != g.Alone[i] {
			t.Fatalf("app %d: shape baseline %v != per-app baseline %v", i, f.AloneOf(i), g.Alone[i])
		}
		if f.IF[i] != p.IF[i] {
			t.Fatalf("app %d: fleet IF %v != δ-graph IF %v", i, f.IF[i], p.IF[i])
		}
	}
}

// TestFleetPairSamplesMatchPairwise: each sampled pair's IFs must equal the
// corresponding cells of the exhaustive pairwise matrix.
func TestFleetPairSamplesMatchPairwise(t *testing.T) {
	spec := fleetSpecForTest()
	f := Runner{Parallelism: 1}.RunFleet(spec, FleetOpts{SamplePairs: 6, SampleSeed: 9})
	if len(f.Pairs) == 0 {
		t.Fatal("no pairs sampled")
	}
	m := Runner{Parallelism: 1}.RunPairwise(spec.Cfg, spec.Apps)
	for _, p := range f.Pairs {
		if p.I >= p.J || p.J >= len(spec.Apps) {
			t.Fatalf("bad pair (%d,%d)", p.I, p.J)
		}
		if p.IF[0] != m.Cell[p.I][p.J] || p.IF[1] != m.Cell[p.J][p.I] {
			t.Fatalf("pair (%d,%d): fleet IFs (%v,%v) != matrix (%v,%v)",
				p.I, p.J, p.IF[0], p.IF[1], m.Cell[p.I][p.J], m.Cell[p.J][p.I])
		}
	}
}

// TestFleetDeterministicAcrossPoolAndShards: the metamorphic core property —
// one fleet result, bit-identical at every Runner.Parallelism and every
// shard count.
func TestFleetDeterministicAcrossPoolAndShards(t *testing.T) {
	spec := fleetSpecForTest()
	opts := FleetOpts{SamplePairs: 4, SampleSeed: 3}
	ref := Runner{Parallelism: 1, Shards: 1}.RunFleet(spec, opts)
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, shards := range []int{1, 2, 4} {
			got := Runner{Parallelism: par, Shards: shards}.RunFleet(spec, opts)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("parallelism %d shards %d diverged from the serial oracle", par, shards)
			}
		}
	}
}

// TestFleetPairSelection: deterministic in the seed, distinct pairs, budget
// respected, exhaustion capped at the full pair space.
func TestFleetPairSelection(t *testing.T) {
	a := fleetPairs(100, FleetOpts{SamplePairs: 32, SampleSeed: 5})
	b := fleetPairs(100, FleetOpts{SamplePairs: 32, SampleSeed: 5})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed picked different pairs")
	}
	if len(a) != 32 {
		t.Fatalf("budget 32 yielded %d pairs", len(a))
	}
	seen := map[appPair]bool{}
	for _, p := range a {
		if p.i < 0 || p.j >= 100 || p.i >= p.j {
			t.Fatalf("bad pair %+v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %+v", p)
		}
		seen[p] = true
	}
	c := fleetPairs(100, FleetOpts{SamplePairs: 32, SampleSeed: 6})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds picked identical pairs")
	}
	// Budget beyond the pair space caps at n(n-1)/2.
	if got := fleetPairs(4, FleetOpts{SamplePairs: 100, SampleSeed: 1}); len(got) > 6 {
		t.Fatalf("4 apps yielded %d pairs, max is 6", len(got))
	}
	if got := fleetPairs(1, FleetOpts{SamplePairs: 8}); got != nil {
		t.Fatalf("1 app yielded pairs: %v", got)
	}
}
