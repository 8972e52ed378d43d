package core

import (
	"fmt"
	"strconv"
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
//
// A spec runs each of its distinct simulations once. Applications equal
// but for name, placement and start share one alone baseline. With two
// such applications on disjoint nodes at equal offsets, no fault plan and
// an app-blind scheduler (qos.Kind.AppBlind), the point at −δ (δ ≠ 0) is
// the point at +δ with the per-app values swapped and the same Diag, and
// runs once for both. Results equal those of running every simulation.
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

// RunDelta executes the spec's distinct simulations — its alone baselines
// and δ points — serially, in submission order: it is
// Runner{Parallelism: 1}.RunDelta(spec).
func RunDelta(spec DeltaSpec) *DeltaGraph {
	return Runner{Parallelism: 1}.RunDelta(spec)
}

// AppsAt returns the spec's application list with burst start times set for
// the point at offset d — every trailing application (i > 0) shifted by d on
// top of its fixed offset, normalized so the earliest start is 0. It is the
// app list a δ point simulates; the trace layer uses it to record the same
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

// deltaPlan is a spec's job list with each distinct simulation once, and
// the job every baseline and δ point reads.
type deltaPlan struct {
	jobs   []job
	alone  []int // alone[i] is the job of application i's baseline
	points []ref // points[k] is the job of the co-run at Deltas[k]

	cfg    cluster.Config
	shape  []int          // shape[i] is the first application sameShape as application i
	index  map[string]int // simKey of every job in jobs → its index
	mirror bool           // the platform lets a two-app job stand for its mirror
	key    []byte         // scratch for simKey
}

// ref names the job whose result a baseline, δ point or matrix cell reads.
// swap reads a two-app job with its applications exchanged: the job is the
// mirror of the simulation the reader wants.
type ref struct {
	job  int
	swap bool
}

// app returns the index, among the job's n applications, of the one that
// plays application i of the reader.
func (r ref) app(i, n int) int {
	if r.swap {
		return n - 1 - i
	}
	return i
}

// plan lists the spec's simulations, each distinct one once (see add): the
// alone baseline of each application (start 0 and no offset: a baseline is
// the application by itself on an idle platform), then the co-run of each
// δ point.
func (s DeltaSpec) plan() *deltaPlan {
	s.validate()
	n := len(s.Apps)
	p := &deltaPlan{
		alone:  make([]int, n),
		points: make([]ref, len(s.Deltas)),
		cfg:    s.Cfg,
		shape:  make([]int, n),
		index:  make(map[string]int),
		mirror: s.Cfg.Faults == nil && s.Cfg.Srv.QoS.Kind.AppBlind(),
	}
	all := make([]int, n)
	for i, a := range s.Apps {
		all[i] = i
		p.shape[i] = i
		for j := range i {
			if sameShape(s.Apps[j], a) {
				p.shape[i] = j
				break
			}
		}
	}
	for i, a := range s.Apps {
		a.Start = 0
		p.alone[i] = p.add([]AppSpec{a}, all[i:i+1]).job
		if p.shape[i] != i {
			// Its baseline is an earlier app's; Prepare would have
			// rejected it, so reject it here.
			if err := a.Validate(s.Cfg); err != nil {
				panic(err)
			}
		}
	}
	for k, d := range s.Deltas {
		p.points[k] = p.add(s.AppsAt(d), all)
	}
	return p
}

// add returns the job of apps co-running on the plan's platform, apps[k]
// being the spec's application idx[k] at its start, and appends the job
// unless the plan already holds the same simulation (equal simKeys).
// A two-app co-run may also read the job of its mirror, swapped: the same
// two applications with their starts exchanged. That needs the plan's
// mirror (an app-blind scheduler, no fault plan) and the two on disjoint
// nodes at different starts. Swapping the apps of such a run changes only
// labels — names, host IDs, node blocks and application IDs, which FIFO
// never reads — and the order in which the kernel spawned the two apps'
// processes. That order decides only ties between events the two apps
// scheduled at time 0. The later app schedules nothing then but its own
// start, and what the first app scheduled at time 0 for that instant acts
// on its own hosts and processes and draws no issue jitter, so the tie
// changes nothing (DESIGN.md, "The concurrency model").
func (p *deltaPlan) add(apps []AppSpec, idx []int) ref {
	disjoint := onDisjointNodes(apps)
	key := p.simKey(p.key[:0], apps, idx, disjoint)
	p.key = key
	if j, ok := p.index[string(key)]; ok {
		return ref{job: j}
	}
	if p.mirror && disjoint && len(apps) == 2 && apps[0].Start != apps[1].Start {
		mirror := p.simKey(key[len(key):], []AppSpec{apps[1], apps[0]}, []int{idx[1], idx[0]}, true)
		if j, ok := p.index[string(mirror)]; ok {
			return ref{job: j, swap: true}
		}
	}
	p.index[string(key)] = len(p.jobs)
	p.jobs = append(p.jobs, job{p.cfg, apps})
	return ref{job: len(p.jobs) - 1}
}

// simKey appends to b the name of the simulation of apps on one platform,
// apps[k] being the spec's application idx[k], blind to what only labels
// it: each application's shape and start, in order. Names never enter.
// Node blocks enter only when two of the apps share a node (disjoint
// false): apps on disjoint nodes keep which processes share a NIC wherever
// their node blocks sit, and host IDs only label hosts (see packed).
func (p *deltaPlan) simKey(b []byte, apps []AppSpec, idx []int, disjoint bool) []byte {
	for k, a := range apps {
		b = strconv.AppendInt(b, int64(p.shape[idx[k]]), 10)
		b = append(b, '@')
		b = strconv.AppendInt(b, int64(a.Start), 10)
		if !disjoint {
			b = append(b, 'n')
			b = strconv.AppendInt(b, int64(a.FirstNode), 10)
		}
		b = append(b, ';')
	}
	return b
}

// onDisjointNodes reports whether no two of apps share a compute node.
func onDisjointNodes(apps []AppSpec) bool {
	for i, a := range apps {
		for _, b := range apps[i+1:] {
			if a.ProcsPerNode <= 0 || b.ProcsPerNode <= 0 ||
				a.FirstNode <= b.lastNode() && b.FirstNode <= a.lastNode() {
				return false
			}
		}
	}
	return true
}

// graph reduces the results of the plan's jobs to the δ-graph. Each point
// records the start times its co-run used, and its interference factors
// divide by the alone baselines.
func (s DeltaSpec) graph(p *deltaPlan, res []RunResult) *DeltaGraph {
	n := len(s.Apps)
	g := &DeltaGraph{
		Alone:  make([]sim.Time, n),
		Points: make([]DeltaPoint, len(s.Deltas)),
	}
	for i, j := range p.alone {
		g.Alone[i] = res[j].Apps[0].Elapsed
	}
	for k, d := range s.Deltas {
		ref := p.points[k]
		apps, r := p.jobs[ref.job].apps, res[ref.job]
		pt := DeltaPoint{
			Delta:      d,
			Start:      make([]sim.Time, n),
			Elapsed:    make([]sim.Time, n),
			IF:         make([]float64, n),
			Throughput: make([]float64, n),
			Diag:       r.Diag,
		}
		for i := range apps {
			a := ref.app(i, n)
			pt.Start[i] = apps[a].Start
			pt.Elapsed[i] = r.Apps[a].Elapsed
			pt.Throughput[i] = r.Apps[a].Throughput
			pt.IF[i] = interference(pt.Elapsed[i], g.Alone[i])
		}
		g.Points[k] = pt
	}
	return g
}

// interference returns elapsed over the alone baseline, the interference
// factor; 0 when there is no baseline.
func interference(elapsed, alone sim.Time) float64 {
	if alone <= 0 {
		return 0
	}
	return float64(elapsed) / float64(alone)
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
// Points of a run δ-graph carry their normalized start vector; hand-built
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
