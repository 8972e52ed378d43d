// Package population generates fleet-scale tenant populations: instead of
// naming a handful of applications by hand, a seeded Params block stamps out
// N tenants from templated application classes (checkpointer, analyzer,
// elephant, mouse) with Zipf-distributed per-process volumes, staggered or
// Poisson arrival offsets, and burstiness knobs that map onto
// workload.Program phases at the scenario layer.
//
// Generation is strictly deterministic: the same Params produce the same
// tenant list, byte for byte, on every platform — all randomized choices
// (class placement over the volume ranks, Poisson inter-arrivals, per-tenant
// jitter seeds) come from one splitmix64 stream seeded by Params.Seed, drawn
// in a fixed order. That makes generated populations as reproducible as a
// hand-written application list, so fleet goldens and the serial-oracle
// conformance suite extend to thousand-tenant scenarios unchanged.
package population

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Size and sanity caps. Validation rejects anything beyond them with a
// stable error so a corrupt or adversarial spec can neither overflow the
// MiB→byte arithmetic nor stamp out an absurd simulation.
const (
	// MaxCount bounds the tenant count of one population.
	MaxCount = 16384
	// MaxBaseMB bounds the rank-1 per-process volume (matches the scenario
	// layer's block_mb cap: 1 TiB per process).
	MaxBaseMB = 1 << 20
	// MaxZipfExp bounds the Zipf exponent (also rejects +Inf).
	MaxZipfExp = 8
	// MaxBursts bounds the per-tenant burst count.
	MaxBursts = 64
	// MaxSamplePairs bounds the sampled-pairwise budget of the fleet path.
	MaxSamplePairs = 4096
	// maxTotalMB bounds the worst-case population volume (64 TiB): the
	// explicit volume × count overflow guard.
	maxTotalMB = 1 << 26
)

// Share is one class's weight in the population mix. Weights are relative;
// the generator converts them to exact per-class counts that sum to Count
// via largest-remainder apportionment.
type Share struct {
	Class  string  `json:"class"`
	Weight float64 `json:"weight"`
}

// Params describes a generated tenant population — the scenario layer
// embeds it verbatim as the "population" block. Zero optional fields pick
// calibrated defaults (DefaultMix, staggered arrivals, one burst).
type Params struct {
	// Count is the number of tenants to stamp out (required).
	Count int `json:"count"`
	// Seed drives every randomized generation choice; the same seed always
	// produces the identical population. Zero is a valid seed.
	Seed uint64 `json:"seed,omitempty"`
	// BaseMB is the per-process volume of the rank-1 (largest) tenant, in
	// MiB (required). Rank r receives BaseMB / r^ZipfExp, floored at 1 MiB,
	// scaled by its class's volume factor.
	BaseMB int64 `json:"base_mb"`
	// ZipfExp is the Zipf skew exponent (required, > 0): higher values
	// concentrate volume in the head of the population.
	ZipfExp float64 `json:"zipf_exp"`
	// Mix is the class mix (empty = DefaultMix). Classes must be template
	// names (Classes()) and may not repeat.
	Mix []Share `json:"mix,omitempty"`
	// Arrival is "staggered" (default: tenants enter evenly over WindowS)
	// or "poisson" (seeded exponential inter-arrivals with mean
	// WindowS/(Count-1) — bursty, overlapping entries).
	Arrival string `json:"arrival,omitempty"`
	// WindowS is the arrival window in seconds (0 = everyone at once).
	WindowS float64 `json:"window_s,omitempty"`
	// Bursts repeats each bursty class's io+compute cycle (0 or 1 = one
	// burst). Single-burst classes (elephant) ignore it.
	Bursts int `json:"bursts,omitempty"`
	// ThinkS is the fixed compute pause between bursts, in seconds.
	ThinkS float64 `json:"think_s,omitempty"`
	// JitterS adds an exponentially distributed extra pause with this mean
	// to every compute phase — the burstiness knob; draws come from each
	// tenant's own seeded stream.
	JitterS float64 `json:"jitter_s,omitempty"`
	// ProcsDiv divides every class's process count (minimum 1 per tenant);
	// 0 or 1 leaves the template counts. Smoke scaling multiplies it.
	ProcsDiv int `json:"procs_div,omitempty"`
	// SamplePairs is the sampled-pairwise budget of the fleet runner
	// (0 = default 64): how many tenant pairs are co-run in isolation to
	// estimate the top aggressor/victim pairs a full N×N matrix would rank.
	SamplePairs int `json:"sample_pairs,omitempty"`
}

// Phase is the declarative form of one generated program step, mirroring
// the scenario layer's phase knobs (MiB/KiB/seconds units). Kind is "io",
// "compute" or "barrier"; exactly the knobs of that kind are set.
type Phase struct {
	Kind       string
	Pattern    string
	BlockMB    int64
	TransferKB int64
	Read       bool
	ComputeS   float64
	JitterS    float64
}

// Tenant is one generated application, ready for the scenario layer to
// compile into a workload program.
type Tenant struct {
	// Name is unique within the population ("chk-0007"); Class names the
	// template that stamped it.
	Name  string
	Class string
	// Rank is the tenant's 1-based Zipf volume rank: rank 1 is the largest.
	Rank int
	// Procs is the process count; VolumeMB the per-process volume over the
	// whole program (all bursts), in MiB.
	Procs    int
	VolumeMB int64
	// StartS is the arrival offset in seconds; Seed the tenant's private
	// jitter stream.
	StartS float64
	Seed   uint64
	// Iterations and Phases are the tenant's program (scenario units).
	Iterations int
	Phases     []Phase
}

// template is one application-class archetype. Volume scaling is a rational
// volNum/volDen so generated volumes stay exact integers.
type template struct {
	short      string
	procs      int
	volNum     int64
	volDen     int64
	pattern    string
	transferKB int64
	read       bool
	barrier    bool
	bursty     bool
}

// templates are the built-in application classes:
//
//   - checkpointer: barrier-synchronized contiguous write bursts with
//     compute between — the HPC checkpoint archetype.
//   - analyzer: strided read bursts (post-processing / restart readers).
//   - elephant: one big contiguous write, 4× the rank volume — the bulk
//     aggressor.
//   - mouse: a single-process small strided writer — the latency-bound
//     victim class.
var templates = map[string]template{
	"checkpointer": {short: "chk", procs: 8, volNum: 1, volDen: 1, pattern: "contiguous", barrier: true, bursty: true},
	"analyzer":     {short: "ana", procs: 4, volNum: 1, volDen: 2, pattern: "strided", transferKB: 256, read: true, bursty: true},
	"elephant":     {short: "ele", procs: 8, volNum: 4, volDen: 1, pattern: "contiguous"},
	"mouse":        {short: "mse", procs: 1, volNum: 1, volDen: 4, pattern: "strided", transferKB: 64, bursty: true},
}

// Classes returns the template names, sorted.
func Classes() []string {
	out := make([]string, 0, len(templates))
	for name := range templates {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DefaultMix is the standard fleet mix: mostly mice, a solid block of
// checkpointers and analyzers, a thin head of elephants.
func DefaultMix() []Share {
	return []Share{
		{Class: "checkpointer", Weight: 3},
		{Class: "analyzer", Weight: 3},
		{Class: "elephant", Weight: 1},
		{Class: "mouse", Weight: 9},
	}
}

// arrivalNames are the valid Arrival values.
var arrivalNames = []string{"staggered", "poisson"}

// Validate checks the parameters. Every error is stable (the same input
// fails the same way every time) and names the offending knob.
func (p Params) Validate() error {
	if p.Count <= 0 {
		return fmt.Errorf("population: count must be > 0, got %d", p.Count)
	}
	if p.Count > MaxCount {
		return fmt.Errorf("population: count %d exceeds the %d cap", p.Count, MaxCount)
	}
	if p.BaseMB <= 0 {
		return fmt.Errorf("population: base_mb must be > 0, got %d", p.BaseMB)
	}
	if p.BaseMB > MaxBaseMB {
		return fmt.Errorf("population: base_mb %d exceeds the %d MiB cap", p.BaseMB, MaxBaseMB)
	}
	// s > 0 rejects NaN, zero and negatives in one comparison; the cap
	// rejects +Inf.
	if !(p.ZipfExp > 0) {
		return fmt.Errorf("population: zipf_exp must be > 0 (got %v)", p.ZipfExp)
	}
	if p.ZipfExp > MaxZipfExp {
		return fmt.Errorf("population: zipf_exp %v exceeds the %v cap", p.ZipfExp, float64(MaxZipfExp))
	}
	mix := p.Mix
	if len(mix) == 0 {
		mix = DefaultMix()
	}
	if len(mix) > len(templates) {
		return fmt.Errorf("population: mix lists %d classes, only %d exist", len(mix), len(templates))
	}
	seen := make(map[string]bool)
	var wsum float64
	maxNum, maxDen := int64(1), int64(1)
	for i, sh := range mix {
		tpl, ok := templates[sh.Class]
		if !ok {
			return fmt.Errorf("population: mix[%d]: unknown class %q (valid: %s)",
				i, sh.Class, strings.Join(Classes(), ", "))
		}
		if seen[sh.Class] {
			return fmt.Errorf("population: mix[%d]: class %q repeats", i, sh.Class)
		}
		seen[sh.Class] = true
		if math.IsNaN(sh.Weight) || math.IsInf(sh.Weight, 0) || sh.Weight < 0 {
			return fmt.Errorf("population: mix[%d] (%s): weight must be finite and >= 0, got %v",
				i, sh.Class, sh.Weight)
		}
		wsum += sh.Weight
		if sh.Weight > 0 && tpl.volNum*maxDen > maxNum*tpl.volDen {
			maxNum, maxDen = tpl.volNum, tpl.volDen
		}
	}
	if !(wsum > 0) {
		return fmt.Errorf("population: mix weights sum to %v, need > 0", wsum)
	}
	if p.Arrival != "" {
		ok := false
		for _, a := range arrivalNames {
			if p.Arrival == a {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("population: unknown arrival %q (valid: %s)",
				p.Arrival, strings.Join(arrivalNames, ", "))
		}
	}
	for _, k := range []struct {
		name string
		v    float64
	}{{"window_s", p.WindowS}, {"think_s", p.ThinkS}, {"jitter_s", p.JitterS}} {
		if err := sim.CheckSeconds(k.name, k.v, 0); err != nil {
			return fmt.Errorf("population: %w", err)
		}
	}
	if p.Bursts < 0 || p.Bursts > MaxBursts {
		return fmt.Errorf("population: bursts must be in [0, %d], got %d", MaxBursts, p.Bursts)
	}
	if p.ProcsDiv < 0 || p.ProcsDiv > 1024 {
		return fmt.Errorf("population: procs_div must be in [0, 1024], got %d", p.ProcsDiv)
	}
	if p.SamplePairs < 0 || p.SamplePairs > MaxSamplePairs {
		return fmt.Errorf("population: sample_pairs must be in [0, %d], got %d", MaxSamplePairs, p.SamplePairs)
	}
	// Explicit volume × count overflow guard: bound the whole population's
	// volume by the worst class scale at every rank. The caps above keep
	// each term far inside int64, so the accumulation itself cannot
	// overflow before tripping the bound.
	bursts := int64(p.Bursts)
	if bursts < 1 {
		bursts = 1
	}
	var total int64
	for r := 1; r <= p.Count; r++ {
		v := scaleVol(ZipfMB(p.BaseMB, p.ZipfExp, r), maxNum, maxDen)
		per := v / bursts
		if per < 1 {
			per = 1
		}
		total += per * bursts * int64(maxProcs())
		if total > maxTotalMB {
			return fmt.Errorf("population: count %d x base_mb %d exceeds the %d MiB population volume cap",
				p.Count, p.BaseMB, int64(maxTotalMB))
		}
	}
	return nil
}

// maxProcs returns the largest template process count — the worst case for
// the volume guard.
func maxProcs() int {
	m := 1
	for _, t := range templates {
		if t.procs > m {
			m = t.procs
		}
	}
	return m
}

// ZipfMB returns the Zipf-distributed per-process volume of rank r (1-based)
// before class scaling: baseMB / r^exp, floored at 1 MiB. It is
// non-increasing in r for any exp > 0.
func ZipfMB(baseMB int64, exp float64, r int) int64 {
	v := int64(float64(baseMB) * math.Pow(float64(r), -exp))
	if v < 1 {
		return 1
	}
	return v
}

// scaleVol applies a class's rational volume factor, flooring at 1 MiB.
func scaleVol(v, num, den int64) int64 {
	v = v * num / den
	if v < 1 {
		return 1
	}
	return v
}

// classCounts apportions Count over the mix by largest remainder: floors
// first, then one extra tenant per class in order of descending fractional
// remainder (ties broken by mix position). Counts always sum to Count.
func classCounts(count int, mix []Share) []int {
	var wsum float64
	for _, sh := range mix {
		wsum += sh.Weight
	}
	counts := make([]int, len(mix))
	rem := make([]float64, len(mix))
	assigned := 0
	for i, sh := range mix {
		ideal := float64(count) * sh.Weight / wsum
		counts[i] = int(ideal)
		rem[i] = ideal - float64(counts[i])
		assigned += counts[i]
	}
	order := make([]int, len(mix))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for k := 0; assigned < count; k++ {
		counts[order[k%len(order)]]++
		assigned++
	}
	return counts
}

// Generate stamps out the population. Tenants are returned in rank order
// (largest volume first); the class occupying each rank, the arrival
// offsets and the per-tenant jitter seeds all come from one deterministic
// stream seeded by p.Seed.
func Generate(p Params) ([]Tenant, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mix := p.Mix
	if len(mix) == 0 {
		mix = DefaultMix()
	}
	bursts := p.Bursts
	if bursts < 1 {
		bursts = 1
	}
	procsDiv := p.ProcsDiv
	if procsDiv < 1 {
		procsDiv = 1
	}

	// One stream, fixed draw order: (1) class placement shuffle,
	// (2) arrival offsets, (3) per-tenant seeds. Changing this order is a
	// breaking change to the determinism contract (see DESIGN.md).
	r := sim.NewRand(p.Seed ^ 0xF1EE7C0DE5EED5)

	// (1) Which class sits at which volume rank: the exact per-class counts
	// spread over the ranks by a seeded shuffle, so every class sees the
	// whole volume spectrum instead of a contiguous block.
	classAt := make([]int, 0, p.Count)
	counts := classCounts(p.Count, mix)
	for ci, n := range counts {
		for k := 0; k < n; k++ {
			classAt = append(classAt, ci)
		}
	}
	r.ShuffleInts(classAt)

	// (2) Arrival offsets in rank order.
	starts := make([]float64, p.Count)
	if p.WindowS > 0 && p.Count > 1 {
		switch p.Arrival {
		case "poisson":
			mean := p.WindowS / float64(p.Count-1)
			t := 0.0
			for i := 1; i < p.Count; i++ {
				t += mean * r.ExpFloat64()
				starts[i] = t
			}
		default: // staggered
			step := p.WindowS / float64(p.Count-1)
			for i := range starts {
				starts[i] = float64(i) * step
			}
		}
	}

	// (3) Per-tenant jitter seeds (nonzero, so the scenario layer never
	// substitutes its positional default).
	seeds := make([]uint64, p.Count)
	for i := range seeds {
		seeds[i] = r.Uint64() | 1
	}

	tenants := make([]Tenant, p.Count)
	serial := make([]int, len(mix)) // per-class name counters
	for i := range tenants {
		rank := i + 1
		ci := classAt[i]
		name := mix[ci].Class
		tpl := templates[name]
		serial[ci]++
		procs := tpl.procs / procsDiv
		if procs < 1 {
			procs = 1
		}
		vol := scaleVol(ZipfMB(p.BaseMB, p.ZipfExp, rank), tpl.volNum, tpl.volDen)
		nb := bursts
		if !tpl.bursty {
			nb = 1
		}
		perBurst := vol / int64(nb)
		if perBurst < 1 {
			perBurst = 1
		}
		t := Tenant{
			Name:     fmt.Sprintf("%s-%04d", tpl.short, rank),
			Class:    name,
			Rank:     rank,
			Procs:    procs,
			VolumeMB: perBurst * int64(nb),
			StartS:   starts[i],
			Seed:     seeds[i],
		}
		io := Phase{
			Kind:       "io",
			Pattern:    tpl.pattern,
			BlockMB:    perBurst,
			TransferKB: tpl.transferKB,
			Read:       tpl.read,
		}
		if tpl.barrier {
			t.Phases = append(t.Phases, Phase{Kind: "barrier"})
		}
		t.Phases = append(t.Phases, io)
		if tpl.bursty && (p.ThinkS > 0 || p.JitterS > 0) {
			t.Phases = append(t.Phases, Phase{Kind: "compute", ComputeS: p.ThinkS, JitterS: p.JitterS})
		}
		if nb > 1 {
			t.Iterations = nb
		}
		tenants[i] = t
	}
	return tenants, nil
}

// Shrink scales the population for smoke runs: volumes divided by volDiv,
// process counts by procsDiv (on top of any existing divisor), and the
// time-axis knobs (arrival window, think, jitter) by timeDiv — the same
// shape-preserving shrink the scenario layer applies to hand-written
// applications. Count and Mix are untouched: a smoke fleet has the same
// tenants with the same class proportions, only smaller.
func (p Params) Shrink(volDiv, procsDiv, timeDiv int) Params {
	out := p
	out.BaseMB = p.BaseMB / int64(volDiv)
	if out.BaseMB < 1 {
		out.BaseMB = 1
	}
	if p.ProcsDiv < 1 {
		out.ProcsDiv = procsDiv
	} else {
		out.ProcsDiv = p.ProcsDiv * procsDiv
	}
	if out.ProcsDiv > 1024 {
		out.ProcsDiv = 1024
	}
	out.WindowS = p.WindowS / float64(timeDiv)
	out.ThinkS = p.ThinkS / float64(timeDiv)
	out.JitterS = p.JitterS / float64(timeDiv)
	return out
}

// TotalMB sums procs × per-process volume over a tenant list — the
// population's aggregate footprint in MiB.
func TotalMB(ts []Tenant) int64 {
	var n int64
	for _, t := range ts {
		n += int64(t.Procs) * t.VolumeMB
	}
	return n
}

// TotalProcs sums the process counts of a tenant list.
func TotalProcs(ts []Tenant) int {
	n := 0
	for _, t := range ts {
		n += t.Procs
	}
	return n
}
