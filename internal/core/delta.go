package core

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// DeltaSpec describes a δ-graph experiment over N applications. The burst
// start time of application i at a point with offset δ is
//
//	StartOffsets[i] + δ   for i > 0
//	StartOffsets[0]       for i == 0
//
// normalized so the earliest application starts at 0. With two applications
// and zero offsets this is exactly the paper's methodology (§III-B):
// positive δ means application A starts first and B δ later; negative means
// B first. StartOffsets (nil = all zero) express fixed staggering between
// the trailing applications — e.g. a 4-app staggered-arrival scenario — on
// top of which δ still sweeps the whole trailing set against app 0. Each δ
// is an independent run on a fresh platform.
type DeltaSpec struct {
	Cfg  cluster.Config
	Apps []AppSpec // Start fields are overwritten per point
	// StartOffsets[i] is a fixed start offset for application i, added
	// before the δ shift. nil means all zero; otherwise the length must
	// equal len(Apps).
	StartOffsets []sim.Time
	Deltas       []sim.Time
}

// validate panics on structurally broken specs (the same contract as
// Prepare, which panics on bad AppSpecs).
func (s DeltaSpec) validate() {
	if len(s.Apps) == 0 {
		panic("core: DeltaSpec needs at least one application")
	}
	if s.StartOffsets != nil && len(s.StartOffsets) != len(s.Apps) {
		panic(fmt.Sprintf("core: DeltaSpec has %d apps but %d start offsets",
			len(s.Apps), len(s.StartOffsets)))
	}
}

// offset returns the fixed start offset of application i.
func (s DeltaSpec) offset(i int) sim.Time {
	if s.StartOffsets == nil {
		return 0
	}
	return s.StartOffsets[i]
}

// DeltaPoint is one δ-graph sample. The slices are indexed by application,
// in DeltaSpec.Apps order.
type DeltaPoint struct {
	Delta      sim.Time
	Start      []sim.Time // normalized burst start times actually used
	Elapsed    []sim.Time
	IF         []float64 // interference factor: Elapsed / alone baseline
	Throughput []float64 // bytes per second
	Diag       Diag
}

// DeltaGraph is the full result: per-app alone baselines (the completion
// vector of each application running by itself) plus one point per δ.
type DeltaGraph struct {
	Alone  []sim.Time
	Points []DeltaPoint
}

// RunDelta executes the alone baselines and every δ point serially, in
// submission order. It is the reference implementation; Runner.RunDelta
// executes the same independent simulations on a worker pool and produces
// an identical DeltaGraph.
func RunDelta(spec DeltaSpec) *DeltaGraph {
	spec.validate()
	g := &DeltaGraph{Alone: make([]sim.Time, len(spec.Apps))}
	for i := range spec.Apps {
		g.Alone[i] = runAlone(spec, i, 1)
	}
	for _, d := range spec.Deltas {
		pt := runPoint(spec, d, 1)
		pt.applyAlone(g.Alone)
		g.Points = append(g.Points, pt)
	}
	return g
}

// runAlone measures application i running by itself (start offsets do not
// apply: a baseline is the application alone on an idle platform) on
// `shards` event engines.
func runAlone(spec DeltaSpec, i, shards int) sim.Time {
	app := spec.Apps[i]
	app.Start = 0
	x := PrepareSharded(spec.Cfg, []AppSpec{app}, shards)
	res := x.Run()
	return res.Apps[0].Elapsed
}

// AppsAt returns the spec's application list with burst start times set for
// the point at offset d — every trailing application (i > 0) shifted by d on
// top of its fixed offset, normalized so the earliest start is 0. It is the
// app list runPoint simulates; the trace layer uses it to record the same
// co-run a δ point would execute.
func (s DeltaSpec) AppsAt(d sim.Time) []AppSpec {
	s.validate()
	apps := make([]AppSpec, len(s.Apps))
	copy(apps, s.Apps)
	min := s.offset(0)
	for i := range apps {
		start := s.offset(i)
		if i > 0 {
			start += d
		}
		apps[i].Start = start
		if start < min {
			min = start
		}
	}
	for i := range apps {
		apps[i].Start -= min
	}
	return apps
}

// runPoint measures all applications together with every trailing
// application (i > 0) shifted by d relative to application 0, on top of the
// spec's fixed per-app offsets, normalized so the earliest start is 0.
// IF is left zero: it is the one quantity that needs the alone baselines,
// so applyAlone fills it in once those are known — which lets a Runner
// execute points and baselines concurrently.
func runPoint(spec DeltaSpec, d sim.Time, shards int) DeltaPoint {
	n := len(spec.Apps)
	apps := spec.AppsAt(d)
	x := PrepareSharded(spec.Cfg, apps, shards)
	res := x.Run()
	pt := DeltaPoint{
		Delta:      d,
		Start:      make([]sim.Time, n),
		Elapsed:    make([]sim.Time, n),
		IF:         make([]float64, n),
		Throughput: make([]float64, n),
		Diag:       res.Diag,
	}
	for i := 0; i < n; i++ {
		pt.Start[i] = apps[i].Start
		pt.Elapsed[i] = res.Apps[i].Elapsed
		pt.Throughput[i] = res.Apps[i].Throughput
	}
	return pt
}

// applyAlone derives the interference factors from the alone baselines.
func (p *DeltaPoint) applyAlone(alone []sim.Time) {
	for i := range alone {
		if alone[i] > 0 {
			p.IF[i] = float64(p.Elapsed[i]) / float64(alone[i])
		}
	}
}

// PeakIF returns the largest interference factor any application sees.
func (g *DeltaGraph) PeakIF() float64 {
	peak := 0.0
	for _, p := range g.Points {
		for _, f := range p.IF {
			if f > peak {
				peak = f
			}
		}
	}
	return peak
}

// At returns the point with the given δ (nil if absent).
func (g *DeltaGraph) At(d sim.Time) *DeltaPoint {
	for i := range g.Points {
		if g.Points[i].Delta == d {
			return &g.Points[i]
		}
	}
	return nil
}

// Unfairness quantifies the first-mover advantage: the mean, over all
// overlapping points and all application pairs with distinct burst starts,
// of IF(later starter) / IF(earlier starter). Normalizing by each
// application's own alone baseline makes the ratio meaningful for
// heterogeneous sets (a mouse's raw elapsed is always far below an
// elephant's, interference or not); for the paper's equal-application
// figures the alone times coincide and the ratio reduces to
// T(second)/T(first), the paper's quantity. A fair (symmetric) δ-graph
// yields ≈ 1; values well above 1 mean the application entering its I/O
// phase first wins — the paper's incast signature. Roles come from the
// start times the point actually ran with (so fixed StartOffsets are
// honored); simultaneous starters have no first mover and are skipped.
func (g *DeltaGraph) Unfairness() float64 {
	var sum float64
	var n int
	for _, p := range g.Points {
		// Only count points where the bursts actually overlapped: some
		// app must have seen interference.
		overlap := false
		for _, f := range p.IF {
			if f >= 1.02 {
				overlap = true
				break
			}
		}
		if !overlap {
			continue
		}
		for i := 0; i < len(p.IF); i++ {
			for j := i + 1; j < len(p.IF); j++ {
				first, second, ok := p.order(i, j)
				if !ok || p.IF[first] <= 0 {
					continue
				}
				sum += p.IF[second] / p.IF[first]
				n++
			}
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// order reports which of applications i and j entered its I/O phase first
// at this point; ok is false for simultaneous starts (no first mover).
// Points built by runPoint carry their normalized start vector; hand-built
// points without one fall back to the paper's rule — the δ sign orders
// application 0 against the trailing set, and trailing apps are mutually
// simultaneous.
func (p *DeltaPoint) order(i, j int) (first, second int, ok bool) {
	if len(p.Start) > 0 && len(p.Start) == len(p.IF) {
		switch {
		case p.Start[i] < p.Start[j]:
			return i, j, true
		case p.Start[j] < p.Start[i]:
			return j, i, true
		}
		return 0, 0, false
	}
	if p.Delta == 0 || i != 0 {
		return 0, 0, false
	}
	if p.Delta > 0 {
		return 0, j, true
	}
	return j, 0, true
}

// Deltas builds a symmetric δ grid: ±each given second value plus zero.
func Deltas(secs ...float64) []sim.Time {
	out := []sim.Time{0}
	for _, s := range secs {
		out = append(out, sim.Seconds(s), sim.Seconds(-s))
	}
	sortTimes(out)
	return out
}

func sortTimes(ts []sim.Time) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func (p DeltaPoint) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "δ=%v", p.Delta)
	for i := range p.Elapsed {
		fmt.Fprintf(&b, " app%d=%v(IF %.2f)", i, p.Elapsed[i], p.IF[i])
	}
	return b.String()
}
