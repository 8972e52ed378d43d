package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// The fleet path is the population-scale counterpart of RunDeltaPairwise.
// A pairwise IF matrix costs n(n-1)/2 co-runs — fine for the paper's
// hand-named application sets, hopeless for a 1000-tenant population
// (~500k simulations). RunFleet instead measures:
//
//   - ONE full co-run of the whole population (everyone at their arrival
//     offset) — the fleet headline,
//   - one alone baseline per distinct application *shape* rather than per
//     application (a generated population has thousands of tenants but only
//     a few dozen shapes once volumes quantize), and
//   - a small seeded sample of pairwise co-runs, biased toward the volume
//     head, to estimate the top aggressor/victim pairs the full matrix
//     would rank.
//
// Interference factors are therefore defined against the canonical alone
// run of each tenant's shape: two tenants that differ only in name,
// placement or jitter seed share a baseline. Placement is immaterial to an
// alone run on an idle platform (guarded by TestAloneIgnoresPlacement);
// jitter seeds perturb an alone run by at most the jitter the seed draws,
// which is the resolution fleet statistics are read at.

// FleetOpts tunes the fleet summarizer.
type FleetOpts struct {
	// SamplePairs is the number of sampled pairwise co-runs (0 = none).
	SamplePairs int
	// SampleSeed seeds pair selection; the same seed always picks the same
	// pairs.
	SampleSeed uint64
}

// PairSample is one sampled pairwise co-run: applications I and J (spec
// indices) at δ=0 on an otherwise idle platform, with the interference
// factor of each against its shape baseline.
type PairSample struct {
	I, J    int
	Elapsed [2]sim.Time
	IF      [2]float64
}

// FleetResult is the outcome of a fleet run.
type FleetResult struct {
	// CoRun is the full-population co-run, apps in spec order.
	CoRun RunResult
	// Alone holds the canonical alone elapsed time per shape; ShapeOf maps
	// each application to its shape index. Shapes == len(Alone).
	Alone   []sim.Time
	ShapeOf []int
	Shapes  int
	// IF is each application's co-run interference factor: co-run elapsed
	// over its shape's alone baseline.
	IF []float64
	// Pairs are the sampled pairwise co-runs.
	Pairs []PairSample
}

// AloneOf returns the shape baseline of application i.
func (f *FleetResult) AloneOf(i int) sim.Time { return f.Alone[f.ShapeOf[i]] }

// RunFleet executes the fleet summary of spec's application list: the full
// co-run at δ=0 (arrival offsets applied via AppsAt, like a δ point), the
// deduplicated shape baselines, and opts.SamplePairs sampled pair co-runs —
// one job list on the pool, so the result is bit-identical at every
// Parallelism and every shard count. Only the co-run builds spec.Cfg's
// whole platform; each baseline and pair runs on one sized to its own apps
// (see packed).
func (r Runner) RunFleet(spec DeltaSpec, opts FleetOpts) *FleetResult {
	n := len(spec.Apps)
	coApps := spec.AppsAt(0)

	// Deduplicate alone baselines by shape. The canonical representative of
	// a shape is its first-seen application, keeping its own program seed;
	// its job runs it alone on node 0 at start 0.
	shapeOf := make([]int, n)
	var reps []AppSpec
	shapeIdx := make(map[string]int)
	for i, a := range spec.Apps {
		k := shapeKey(a)
		u, ok := shapeIdx[k]
		if !ok {
			u = len(reps)
			shapeIdx[k] = u
			reps = append(reps, a)
		}
		shapeOf[i] = u
	}

	pairs := fleetPairs(n, opts)
	jobs := make([]job, 0, 1+len(reps)+len(pairs))
	jobs = append(jobs, job{spec.Cfg, coApps})
	for _, rep := range reps {
		jobs = append(jobs, packed(spec.Cfg, rep))
	}
	for _, p := range pairs {
		jobs = append(jobs, packed(spec.Cfg, spec.Apps[p.i], spec.Apps[p.j]))
	}
	res := r.runJobs(jobs)
	f := &FleetResult{
		CoRun:   res[0],
		Alone:   make([]sim.Time, len(reps)),
		ShapeOf: shapeOf,
		Shapes:  len(reps),
		IF:      make([]float64, n),
		Pairs:   make([]PairSample, len(pairs)),
	}
	for u := range reps {
		f.Alone[u] = res[1+u].Apps[0].Elapsed
	}
	for i := range f.IF {
		f.IF[i] = interference(f.CoRun.Apps[i].Elapsed, f.AloneOf(i))
	}
	for k, p := range pairs {
		pairApps := res[1+len(reps)+k].Apps
		a, b := pairApps[0].Elapsed, pairApps[1].Elapsed
		f.Pairs[k] = PairSample{
			I:       p.i,
			J:       p.j,
			Elapsed: [2]sim.Time{a, b},
			IF:      [2]float64{interference(a, f.AloneOf(p.i)), interference(b, f.AloneOf(p.j))},
		}
	}
	return f
}

// packed is the job of apps alone at δ=0 on a platform sized to them: cfg
// with as many compute nodes as the apps use, the apps renumbered in order
// onto nodes from 0. A fleet's apps occupy disjoint nodes, so this keeps
// which processes share a NIC; host IDs and names only label hosts, no
// randomness is drawn per host, an idle host adds nothing to a run's
// diagnostics and the dial order is the apps'. The result is therefore the
// one on cfg's full platform, without building its idle nodes.
func packed(cfg cluster.Config, apps ...AppSpec) job {
	apps = slices.Clone(apps)
	node := 0
	for i := range apps {
		apps[i].FirstNode, apps[i].Start = node, 0
		node += (apps[i].Procs + apps[i].ProcsPerNode - 1) / apps[i].ProcsPerNode
	}
	cfg.ComputeNodes = node
	return job{cfg, apps}
}

// shapeKey canonicalizes the baseline-relevant part of an AppSpec: name,
// placement, start time and the program's jitter seed are excluded, every
// knob that changes an alone run's workload is included. It reads the
// resolved program, so a single-burst app and the same burst written as a
// one-phase program share a shape. A δ-graph compares applications by
// sameShape instead, which keeps the seed.
func shapeKey(a AppSpec) string {
	p := *a.program()
	p.Seed = 0
	return fmt.Sprintf("p%d/%d|%+v|%v|%d", a.Procs, a.ProcsPerNode, p, a.TargetServers, a.Stripe)
}

// sameShape reports whether applications a and b run the same processes,
// so that alone on an idle platform they are the same simulation
// (TestAloneIgnoresPlacement): equal in everything shapeKey reads, the
// resolved program compared whole, seed included. Name, node block and
// start may differ. It builds no key, and no program unless exactly one of
// the two is a single-burst app.
func sameShape(a, b AppSpec) bool {
	if a.Procs != b.Procs || a.ProcsPerNode != b.ProcsPerNode || a.Stripe != b.Stripe ||
		!slices.Equal(a.TargetServers, b.TargetServers) {
		return false
	}
	if a.Program == nil && b.Program == nil {
		return a.Workload == b.Workload
	}
	pa, pb := a.program(), b.program()
	return pa.Iterations == pb.Iterations && pa.Seed == pb.Seed && slices.Equal(pa.Phases, pb.Phases)
}

// fleetPairs picks opts.SamplePairs distinct unordered pairs: even draws
// anchor one endpoint in the volume head, the first ceil(sqrt(n)) apps
// (spec order is rank order for generated populations), odd draws are
// uniform — so the sample covers both elephant-on-anything aggression and
// background mouse-on-mouse contention.
// Selection is deterministic in opts.SampleSeed; a bounded attempt count
// keeps the draw loop total even when the pair space is nearly exhausted.
func fleetPairs(n int, opts FleetOpts) []appPair {
	k := opts.SamplePairs
	if k <= 0 || n < 2 {
		return nil
	}
	if total := n * (n - 1) / 2; k > total {
		k = total
	}
	head := int(math.Ceil(math.Sqrt(float64(n)))) // <= n for n >= 2
	r := sim.NewRand(opts.SampleSeed ^ 0x5EEDFA12F9)
	seen := make(map[appPair]bool)
	out := make([]appPair, 0, k)
	for attempts := 0; len(out) < k && attempts < 64*k; attempts++ {
		var i, j int
		if len(out)%2 == 0 {
			i, j = r.Intn(head), r.Intn(n)
		} else {
			i, j = r.Intn(n), r.Intn(n)
		}
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		p := appPair{i, j}
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}
