package core_test

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/pfs"
	"repro/internal/qos"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// jobCounter is a Memo that runs every job and counts them: the number of
// simulations a Runner call executes.
type jobCounter struct{ n atomic.Int64 }

func (c *jobCounter) Resolve(_ string, run func() core.RunResult) core.RunResult {
	c.n.Add(1)
	return run()
}

// directGraph computes spec's δ-graph from its unreduced job list, every
// simulation a direct Prepare(…).Run() outside the Runner: each
// application alone at start 0, then the co-run of every δ point.
func directGraph(spec core.DeltaSpec) *core.DeltaGraph {
	g := &core.DeltaGraph{Alone: make([]sim.Time, len(spec.Apps))}
	for i, a := range spec.Apps {
		a.Start = 0
		g.Alone[i] = core.Prepare(spec.Cfg, []core.AppSpec{a}).Run().Apps[0].Elapsed
	}
	for _, d := range spec.Deltas {
		apps := spec.AppsAt(d)
		r := core.Prepare(spec.Cfg, apps).Run()
		p := core.DeltaPoint{Delta: d, Diag: r.Diag}
		for i, a := range r.Apps {
			p.Start = append(p.Start, apps[i].Start)
			p.Elapsed = append(p.Elapsed, a.Elapsed)
			p.IF = append(p.IF, float64(a.Elapsed)/float64(g.Alone[i]))
			p.Throughput = append(p.Throughput, a.Throughput)
		}
		g.Points = append(g.Points, p)
	}
	return g
}

// directCells computes the pairwise matrix cells from direct co-runs of
// every unordered pair at start 0.
func directCells(spec core.DeltaSpec, alone []sim.Time) [][]float64 {
	n := len(spec.Apps)
	cell := make([][]float64, n)
	for i := range cell {
		cell[i] = make([]float64, n)
		cell[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := spec.Apps[i], spec.Apps[j]
			a.Start, b.Start = 0, 0
			r := core.Prepare(spec.Cfg, []core.AppSpec{a, b}).Run()
			cell[i][j] = float64(r.Apps[0].Elapsed) / float64(alone[i])
			cell[j][i] = float64(r.Apps[1].Elapsed) / float64(alone[j])
		}
	}
	return cell
}

// unreduced is the size of a spec's job list before reduction: one
// baseline per application and one co-run per δ point.
func unreduced(spec core.DeltaSpec) int { return len(spec.Apps) + len(spec.Deltas) }

// sameGraph fails the test unless got equals the direct graph in every
// baseline and in every point's starts, elapsed times, throughputs,
// interference factors and diagnostics.
func sameGraph(t *testing.T, what string, got, want *core.DeltaGraph) {
	t.Helper()
	if !reflect.DeepEqual(got.Alone, want.Alone) {
		t.Fatalf("%s: baselines %v, want %v from direct runs", what, got.Alone, want.Alone)
	}
	for k, p := range got.Points {
		if !reflect.DeepEqual(p, want.Points[k]) {
			t.Fatalf("%s δ=%v:\n got  %+v\n want %+v (direct run)", what, p.Delta, p, want.Points[k])
		}
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("%s: %d points, want %d", what, len(got.Points), len(want.Points))
	}
}

// TestReducedDeltaGraphs holds every reduced δ-graph and pairwise matrix to
// direct runs of its unreduced job list, and counts the simulations the
// reduced list ran, so a silent fallback to the full list fails too.
func TestReducedDeltaGraphs(t *testing.T) {
	// The Figure 2 campaign (three series of two equal apps, two
	// baselines and five δ points each) under FIFO, sync on and off: each
	// series runs one baseline and the points at δ <= 0, and reads the
	// points at δ > 0 as their mirrors.
	t.Run("figure2", func(t *testing.T) {
		for _, mode := range []pfs.SyncMode{pfs.SyncOn, pfs.SyncOff} {
			var specs []core.DeltaSpec
			for _, b := range []cluster.BackendKind{cluster.HDD, cluster.SSD, cluster.RAM} {
				cfg := paper.Config(16)
				cfg.Backend, cfg.Sync = b, mode
				apps := core.TwoAppSpecs(cfg, paper.ProcsPerApp(cfg), cfg.CoresPerNode, paper.ContigSpec())
				deltas := core.Deltas(20, 40)
				if mode == pfs.SyncOff {
					deltas = core.Deltas(5, 10)
				}
				specs = append(specs, core.DeltaSpec{Cfg: cfg, Apps: apps, Deltas: deltas})
			}
			jobs := &jobCounter{}
			graphs := core.Runner{Parallelism: 2, Memo: jobs}.RunDeltas(specs)
			if n := jobs.n.Load(); n != 12 {
				t.Fatalf("%v: ran %d simulations, want 12 of 21", mode, n)
			}
			for i, g := range graphs {
				sameGraph(t, fmt.Sprintf("%v %v", mode, specs[i].Cfg.Backend), g, directGraph(specs[i]))
			}
		}
	})

	// Two equal apps under each scheduler kind. Every kind shares the
	// baseline; only the app-blind one mirrors. The grid holds the
	// transport's base RTO (200 ms): the first app's retransmission timers,
	// armed at time 0, fall due at the instant the second app starts.
	t.Run("kinds", func(t *testing.T) {
		cfg := tinyConfig(cluster.HDD, pfs.SyncOn)
		cfg.Srv.FlowBufs = 2
		apps := core.TwoAppSpecs(cfg, 8, 4, workload.Spec{Pattern: workload.Contiguous, BlockBytes: 8 << 20})
		deltas := core.Deltas(0.001, 0.2, 0.5, 3)
		for _, k := range []qos.Kind{qos.Off, qos.FairShare, qos.TokenBucket, qos.Controller, qos.AppOrdered, qos.RoundRobin} {
			spec := core.DeltaSpec{Cfg: cfg, Apps: apps, Deltas: deltas}
			spec.Cfg.Srv.QoS = qos.Params{Kind: k}
			jobs := &jobCounter{}
			g := core.Runner{Parallelism: 2, Memo: jobs}.RunDelta(spec)
			want := int64(1 + len(deltas)) // one shared baseline
			if k.AppBlind() {
				want = 1 + 5 // and the points at δ <= 0
			}
			if n := jobs.n.Load(); n != want {
				t.Fatalf("%v: ran %d simulations, want %d of %d", k, n, want, unreduced(spec))
			}
			sameGraph(t, k.String(), g, directGraph(spec))
		}
	})

	// Apps equal but for the program's jitter seed are different
	// simulations: nothing is shared or mirrored.
	t.Run("seeds", func(t *testing.T) {
		cfg := tinyConfig(cluster.SSD, pfs.SyncOn)
		apps := core.TwoAppSpecs(cfg, 8, 4, workload.Spec{})
		for i := range apps {
			apps[i].Program = &workload.Program{
				Phases: []workload.Phase{
					{Kind: workload.PhaseCompute, Compute: int64(sim.Millisecond), JitterMean: int64(50 * sim.Millisecond)},
					{Kind: workload.PhaseIO, IO: workload.Spec{Pattern: workload.Contiguous, BlockBytes: 4 << 20}},
				},
				Iterations: 2,
				Seed:       uint64(7 + i),
			}
		}
		spec := core.DeltaSpec{Cfg: cfg, Apps: apps, Deltas: core.Deltas(0.05, 1)}
		jobs := &jobCounter{}
		g := core.Runner{Parallelism: 2, Memo: jobs}.RunDelta(spec)
		if n := jobs.n.Load(); n != int64(unreduced(spec)) {
			t.Fatalf("ran %d simulations, want all %d", n, unreduced(spec))
		}
		sameGraph(t, "seeds", g, directGraph(spec))
	})

	// The pairwise matrix of smoke builtins with equal apps, each on a
	// three-point grid: equal apps share a baseline, and pairs of the same
	// two shapes in the same order run once.
	t.Run("pairwise", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			jobs int64 // simulations of the reduced list
		}{
			{"strided-pileup-3", 1 + 3 + 1},     // 3 equal apps: 3 baselines and 3 pairs as 1 each
			{"shared-servers-4", 1 + 3 + 1},     // 4 equal apps: 6 pairs as 1
			{"staggered-arrivals-4", 1 + 3 + 1}, // the same at fixed start offsets
			{"elephant-mice", 2 + 3 + 2},        // the mice share a baseline; (E,m1) and (E,m2) one pair
		} {
			s, err := scenario.Lookup(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			_, spec, err := s.Smoke().Build(cluster.HDD)
			if err != nil {
				t.Fatal(err)
			}
			jobs := &jobCounter{}
			g, m := core.Runner{Parallelism: 2, Memo: jobs}.RunDeltaPairwise(spec)
			n := len(spec.Apps)
			if got := jobs.n.Load(); got != tc.jobs {
				t.Errorf("%s: ran %d simulations, want %d of %d", tc.name, got, tc.jobs, unreduced(spec)+n*(n-1)/2)
			}
			want := directGraph(spec)
			sameGraph(t, tc.name, g, want)
			if cells := directCells(spec, want.Alone); !reflect.DeepEqual(m.Cell, cells) {
				t.Fatalf("%s: cells %v, want %v from direct runs", tc.name, m.Cell, cells)
			}
		}
	})
}

// tinyConfig is a scaled-down platform: 4 nodes x 4 cores, 4 servers.
func tinyConfig(backend cluster.BackendKind, mode pfs.SyncMode) cluster.Config {
	cfg := cluster.Default()
	cfg.ComputeNodes = 4
	cfg.CoresPerNode = 4
	cfg.Servers = 4
	cfg.Backend = backend
	cfg.Sync = mode
	return cfg
}
