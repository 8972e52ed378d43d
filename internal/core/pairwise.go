package core

import (
	"fmt"

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

// RunDeltaPairwise executes a δ-graph and the pairwise interference-factor
// matrix of the same application set as one job list: the δ-graph's jobs,
// then the co-run at δ=0 of each unordered application pair. The matrix
// shares the δ-graph's baselines, and one pair run fills both Cell[i][j]
// and Cell[j][i], so an n-app matrix adds at most n*(n-1)/2 simulations to
// the δ-graph's. A pair reads an earlier job when that job is the same
// simulation: the δ=0 point of two apps at equal offsets is their pair,
// and pairs of the same two application shapes in the same order, each
// pair on disjoint nodes, differ only in labels (see DeltaSpec).
func (r Runner) RunDeltaPairwise(spec DeltaSpec) (*DeltaGraph, *IFMatrix) {
	p := spec.plan()
	pairs := appPairs(len(spec.Apps))
	cells := make([]ref, len(pairs))
	for k, pr := range pairs {
		a, b := spec.Apps[pr.i], spec.Apps[pr.j]
		a.Start, b.Start = 0, 0
		cells[k] = p.add([]AppSpec{a, b}, []int{pr.i, pr.j})
	}
	res := r.runJobs(p.jobs)
	g := spec.graph(p, res)
	m := newIFMatrix(spec.Apps)
	copy(m.Alone, g.Alone)
	for k, pr := range pairs {
		m.fill(pr, cells[k], res[cells[k].job])
	}
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

// fill derives the two off-diagonal cells of pair p from the baselines and
// res, the result of the job r names for the pair's co-run.
func (m *IFMatrix) fill(p appPair, r ref, res RunResult) {
	m.Cell[p.i][p.j] = interference(res.Apps[r.app(0, 2)].Elapsed, m.Alone[p.i])
	m.Cell[p.j][p.i] = interference(res.Apps[r.app(1, 2)].Elapsed, m.Alone[p.j])
}

// String renders the matrix compactly for logs and tests.
func (m *IFMatrix) String() string {
	s := "IF matrix:"
	for i := range m.Cell {
		s += fmt.Sprintf(" %s=%v", m.Names[i], m.Cell[i])
	}
	return s
}
