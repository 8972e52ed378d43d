package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/report"
)

// FleetResult is one population scenario executed on one backend: the
// full-population co-run, the shape-deduplicated alone baselines and the
// sampled pairwise co-runs (core.FleetResult), with the generated tenant
// list kept alongside for class-level aggregation.
type FleetResult struct {
	// Spec is the population scenario as given; Expanded the stamped-out
	// app-list twin the engine actually ran.
	Spec     Spec
	Expanded Spec
	Backend  cluster.BackendKind
	Cfg      cluster.Config
	Tenants  []population.Tenant
	Core     *core.FleetResult
}

// defaultSamplePairs is the pairwise sampling budget when the population
// block leaves sample_pairs at 0.
const defaultSamplePairs = 64

// RunFleet executes a population scenario on one backend through the fleet
// summarizer: one co-run of all tenants at their arrival offsets, one alone
// baseline per distinct tenant shape, and a seeded sample of pairwise
// co-runs — every simulation independent and fanned out on the pool, so the
// result is bit-identical at any pool parallelism and shard count.
func RunFleet(s Spec, backend cluster.BackendKind, pool core.Runner) (*FleetResult, error) {
	if s.Population == nil {
		return nil, fmt.Errorf("scenario %q: not a population scenario (use Run)", s.Name)
	}
	es, tenants, err := ExpandPopulation(s)
	if err != nil {
		return nil, err
	}
	cfg, spec, err := es.Build(backend)
	if err != nil {
		return nil, err
	}
	pairs := s.Population.SamplePairs
	if pairs == 0 {
		pairs = defaultSamplePairs
	}
	f := pool.RunFleet(spec, core.FleetOpts{
		SamplePairs: pairs,
		SampleSeed:  s.Population.Seed,
	})
	return &FleetResult{
		Spec:     s,
		Expanded: es,
		Backend:  backend,
		Cfg:      cfg,
		Tenants:  tenants,
		Core:     f,
	}, nil
}

// Makespan is the fleet co-run's total span: the latest tenant completion.
func (f *FleetResult) Makespan() float64 {
	var end float64
	for _, a := range f.Core.CoRun.Apps {
		if s := a.End.Seconds(); s > end {
			end = s
		}
	}
	return end
}

// ClassStat aggregates the co-run interference factors of one application
// class — the LASSi-style per-class view that replaces the N×N matrix at
// fleet scale.
type ClassStat struct {
	Class    string
	Count    int
	Procs    int
	VolumeMB int64 // procs × per-process volume, summed
	MeanIF   float64
	P50IF    float64
	P95IF    float64
	MaxIF    float64
}

// ClassStats aggregates per class, in the generator's class-name order.
func (f *FleetResult) ClassStats() []ClassStat {
	byClass := make(map[string]*ClassStat)
	ifs := make(map[string][]float64)
	for i, t := range f.Tenants {
		cs := byClass[t.Class]
		if cs == nil {
			cs = &ClassStat{Class: t.Class}
			byClass[t.Class] = cs
		}
		cs.Count++
		cs.Procs += t.Procs
		cs.VolumeMB += int64(t.Procs) * t.VolumeMB
		ifs[t.Class] = append(ifs[t.Class], f.Core.IF[i])
	}
	var out []ClassStat
	for _, name := range population.Classes() {
		cs := byClass[name]
		if cs == nil {
			continue
		}
		v := ifs[name]
		sort.Float64s(v)
		var sum float64
		for _, x := range v {
			sum += x
		}
		cs.MeanIF = sum / float64(len(v))
		cs.P50IF = percentile(v, 50)
		cs.P95IF = percentile(v, 95)
		cs.MaxIF = v[len(v)-1]
		out = append(out, *cs)
	}
	return out
}

// IFPercentiles returns the population's co-run slowdown-vs-alone
// distribution at the given percentiles (nearest-rank on the sorted IFs).
func (f *FleetResult) IFPercentiles(ps ...float64) []float64 {
	v := append([]float64(nil), f.Core.IF...)
	sort.Float64s(v)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = percentile(v, p)
	}
	return out
}

// percentile is the nearest-rank percentile of an ascending-sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TopPair is one sampled aggressor/victim pair: the victim is whichever
// side of the pair co-run saw the larger interference factor.
type TopPair struct {
	Victim, Aggressor     string
	VictimIF, AggressorIF float64
}

// TopPairs ranks the sampled pairwise co-runs by victim IF, worst first
// (ties keep sample order, so the ranking is deterministic), and returns
// the top k.
func (f *FleetResult) TopPairs(k int) []TopPair {
	out := make([]TopPair, 0, len(f.Core.Pairs))
	for _, p := range f.Core.Pairs {
		vi, ai, vIF, aIF := p.I, p.J, p.IF[0], p.IF[1]
		if p.IF[1] > p.IF[0] {
			vi, ai, vIF, aIF = p.J, p.I, p.IF[1], p.IF[0]
		}
		out = append(out, TopPair{
			Victim:      f.Tenants[vi].Name,
			Aggressor:   f.Tenants[ai].Name,
			VictimIF:    vIF,
			AggressorIF: aIF,
		})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].VictimIF > out[b].VictimIF })
	if k >= 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// RenderFleetClasses tabulates the per-class IF distributions.
func RenderFleetClasses(f *FleetResult) *report.Table {
	t := report.New(fmt.Sprintf("%s on %s: per-class interference", f.Spec.Name, f.Backend),
		"class", "tenants", "procs", "vol_mb", "mean_IF", "p50_IF", "p95_IF", "max_IF")
	for _, cs := range f.ClassStats() {
		t.Add(cs.Class, cs.Count, cs.Procs, cs.VolumeMB, cs.MeanIF, cs.P50IF, cs.P95IF, cs.MaxIF)
	}
	return t
}

// RenderFleetSlowdown tabulates the population slowdown-vs-alone percentiles.
func RenderFleetSlowdown(f *FleetResult) *report.Table {
	t := report.New(fmt.Sprintf("%s on %s: slowdown vs alone (IF percentiles)", f.Spec.Name, f.Backend),
		"p10", "p25", "p50", "p75", "p90", "p95", "p99", "max")
	v := f.IFPercentiles(10, 25, 50, 75, 90, 95, 99, 100)
	t.Add(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7])
	return t
}

// RenderFleetPairs tabulates the top-k sampled aggressor/victim pairs.
func RenderFleetPairs(f *FleetResult, k int) *report.Table {
	t := report.New(fmt.Sprintf("%s on %s: top sampled aggressor/victim pairs (of %d)",
		f.Spec.Name, f.Backend, len(f.Core.Pairs)),
		"victim", "aggressor", "victim_IF", "aggressor_IF")
	for _, p := range f.TopPairs(k) {
		t.Add(p.Victim, p.Aggressor, p.VictimIF, p.AggressorIF)
	}
	return t
}

// RenderFleetSummary tabulates the fleet headline: one row per result.
func RenderFleetSummary(results []*FleetResult) *report.Table {
	t := report.New("fleet summary",
		"scenario", "backend", "tenants", "procs", "total_mb", "shapes", "pairs",
		"makespan_s", "p50_IF", "p95_IF", "max_IF", "events")
	for _, f := range results {
		v := f.IFPercentiles(50, 95, 100)
		t.Add(f.Spec.Name, f.Backend.String(), len(f.Tenants),
			population.TotalProcs(f.Tenants), population.TotalMB(f.Tenants),
			f.Core.Shapes, len(f.Core.Pairs),
			f.Makespan(), v[0], v[1], v[2], f.Core.CoRun.Diag.Events)
	}
	return t
}
