package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// IFMatrix is the pairwise interference-factor matrix of an application
// set, the summary Alves & Drummond's quantitative cross-application model
// consumes: Cell[i][j] is the interference factor of application i
// (elapsed time divided by its alone baseline) when co-running with
// application j only, both bursts starting at δ=0. The diagonal is exactly
// 1 (an application does not interfere with itself — it IS the alone run).
// The matrix is generally asymmetric: a heavy sequential writer barely
// notices a small random one while slowing it down severely.
type IFMatrix struct {
	// Names labels the rows and columns, in application order.
	Names []string
	// Alone is the per-app completion vector of the solo baselines.
	Alone []sim.Time
	// Cell[i][j] is the IF of app i against app j; Cell[i][i] == 1.
	Cell [][]float64
}

// Dim returns the number of applications.
func (m *IFMatrix) Dim() int { return len(m.Names) }

// Peak returns the largest off-diagonal interference factor and the
// (victim, aggressor) pair that produced it.
func (m *IFMatrix) Peak() (victim, aggressor int, factor float64) {
	for i := range m.Cell {
		for j, f := range m.Cell[i] {
			if i != j && f > factor {
				victim, aggressor, factor = i, j, f
			}
		}
	}
	return
}

// Asymmetry returns the largest |Cell[i][j] - Cell[j][i]| over all pairs —
// 0 for perfectly symmetric interference, large when one application
// bullies another (the paper's first-mover/incast signature shows up here
// when workloads differ).
func (m *IFMatrix) Asymmetry() float64 {
	var peak float64
	for i := range m.Cell {
		for j := i + 1; j < len(m.Cell[i]); j++ {
			d := m.Cell[i][j] - m.Cell[j][i]
			if d < 0 {
				d = -d
			}
			if d > peak {
				peak = d
			}
		}
	}
	return peak
}

// RunPairwise measures the pairwise interference-factor matrix of apps on
// cfg: one alone run per application plus one co-run per unordered pair,
// every simulation independent and executed on the pool. One pair run fills
// both Cell[i][j] and Cell[j][i], so an n-app matrix costs
// n + n*(n-1)/2 simulations.
func (r Runner) RunPairwise(cfg cluster.Config, apps []AppSpec) *IFMatrix {
	return r.RunPairwiseFrom(cfg, apps, nil)
}

// RunPairwiseFrom is RunPairwise with precomputed alone baselines. The
// baselines must come from the same cfg and apps with Start=0 — which is
// exactly what DeltaGraph.Alone holds — so a caller that already ran a
// δ-graph skips the n redundant alone simulations. nil computes them here.
func (r Runner) RunPairwiseFrom(cfg cluster.Config, apps []AppSpec, alone []sim.Time) *IFMatrix {
	n := len(apps)
	if n == 0 {
		panic("core: RunPairwise needs at least one application")
	}
	if alone != nil && len(alone) != n {
		panic(fmt.Sprintf("core: RunPairwiseFrom got %d apps but %d baselines", n, len(alone)))
	}
	m := newIFMatrix(apps)
	pairs := appPairs(n)
	// Baseline tasks only when not precomputed: task t < base is the alone
	// run of app t, task base+k the co-run of pair k.
	base := n
	if alone != nil {
		copy(m.Alone, alone)
		base = 0
	}
	elapsed := make([][2]sim.Time, len(pairs))
	r.ForEach(base+len(pairs), func(t int) {
		if t < base {
			app := apps[t]
			app.Start = 0
			x := PrepareSharded(cfg, []AppSpec{app}, r.Shards)
			m.Alone[t] = x.Run().Apps[0].Elapsed
			return
		}
		elapsed[t-base] = runPair(cfg, apps, pairs[t-base], r.Shards)
	})
	m.fill(pairs, elapsed)
	return m
}

// RunDeltaPairwise executes a δ-graph and the pairwise matrix of the same
// application set as ONE flattened task set — every alone baseline, δ point
// and pair co-run claims a pool slot concurrently, with the baselines
// shared by both results. Output is identical to RunDelta followed by
// RunPairwiseFrom(…, graph.Alone); only the wall-clock differs.
func (r Runner) RunDeltaPairwise(spec DeltaSpec) (*DeltaGraph, *IFMatrix) {
	spec.validate()
	n := len(spec.Apps)
	g := &DeltaGraph{
		Alone:  make([]sim.Time, n),
		Points: make([]DeltaPoint, len(spec.Deltas)),
	}
	m := newIFMatrix(spec.Apps)
	pairs := appPairs(n)
	elapsed := make([][2]sim.Time, len(pairs))
	r.ForEach(n+len(spec.Deltas)+len(pairs), func(t int) {
		switch {
		case t < n:
			g.Alone[t] = runAlone(spec, t, r.Shards)
		case t < n+len(spec.Deltas):
			g.Points[t-n] = runPoint(spec, spec.Deltas[t-n], r.Shards)
		default:
			k := t - n - len(spec.Deltas)
			elapsed[k] = runPair(spec.Cfg, spec.Apps, pairs[k], r.Shards)
		}
	})
	for i := range g.Points {
		g.Points[i].applyAlone(g.Alone)
	}
	copy(m.Alone, g.Alone)
	m.fill(pairs, elapsed)
	return g, m
}

// appPair indexes one unordered application pair.
type appPair struct{ i, j int }

// appPairs enumerates the n*(n-1)/2 unordered pairs in row order.
func appPairs(n int) []appPair {
	var out []appPair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, appPair{i, j})
		}
	}
	return out
}

// newIFMatrix allocates a matrix with names resolved and a unit diagonal.
func newIFMatrix(apps []AppSpec) *IFMatrix {
	n := len(apps)
	m := &IFMatrix{
		Names: make([]string, n),
		Alone: make([]sim.Time, n),
		Cell:  make([][]float64, n),
	}
	for i, a := range apps {
		m.Names[i] = a.Name
		if m.Names[i] == "" {
			m.Names[i] = AppName(i)
		}
		m.Cell[i] = make([]float64, n)
		m.Cell[i][i] = 1
	}
	return m
}

// runPair co-runs one application pair at δ=0 and returns both elapsed times.
func runPair(cfg cluster.Config, apps []AppSpec, p appPair, shards int) [2]sim.Time {
	a, b := apps[p.i], apps[p.j]
	a.Start, b.Start = 0, 0
	res := PrepareSharded(cfg, []AppSpec{a, b}, shards).Run()
	return [2]sim.Time{res.Apps[0].Elapsed, res.Apps[1].Elapsed}
}

// fill derives the off-diagonal cells from the pair co-runs and baselines.
func (m *IFMatrix) fill(pairs []appPair, elapsed [][2]sim.Time) {
	for k, p := range pairs {
		if m.Alone[p.i] > 0 {
			m.Cell[p.i][p.j] = float64(elapsed[k][0]) / float64(m.Alone[p.i])
		}
		if m.Alone[p.j] > 0 {
			m.Cell[p.j][p.i] = float64(elapsed[k][1]) / float64(m.Alone[p.j])
		}
	}
}

// String renders the matrix compactly for logs and tests.
func (m *IFMatrix) String() string {
	s := "IF matrix:"
	for i := range m.Cell {
		s += fmt.Sprintf(" %s=%v", m.Names[i], m.Cell[i])
	}
	return s
}
