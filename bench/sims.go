package main

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/paper"
	"repro/internal/pfs"
	qosreport "repro/internal/qos/report"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/whatif"
)

// serial is the runner of every simulation workload but the fleet: one
// simulation at a time on the serial kernel, so host time tracks the
// simulator's own cost and not the pool's.
var serial = core.Runner{Parallelism: 1, Shards: 1}

// fleetShards is the fleet's shard count: the fleet builtin asks for 4,
// clamped to the cores the benchmark may use.
func fleetShards() int { return min(4, runtime.NumCPU()) }

// validate builds (without running) the platform of every given
// simulation, which is where an application that does not fit its
// platform is rejected. It is part of every simulation workload's set-up.
func validate(cfg cluster.Config, shards int, runs ...[]core.AppSpec) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("invalid spec: %v", r)
		}
	}()
	for _, apps := range runs {
		core.PrepareSharded(cfg, apps, shards)
	}
	return nil
}

// deltaRuns lists the application sets of every simulation a δ-graph
// runs: each alone baseline, then each δ point.
func deltaRuns(spec core.DeltaSpec) [][]core.AppSpec {
	var runs [][]core.AppSpec
	for _, a := range spec.Apps {
		a.Start = 0
		runs = append(runs, []core.AppSpec{a})
	}
	for _, d := range spec.Deltas {
		runs = append(runs, spec.AppsAt(d))
	}
	return runs
}

// renderTSV renders tables the way the CLIs print them with -tsv.
func renderTSV(tables ...*report.Table) string {
	var b strings.Builder
	if err := whatif.EmitTables(&b, true, tables...); err != nil {
		panic(err) // a strings.Builder cannot fail
	}
	return b.String()
}

// --- fig2-contig --------------------------------------------------------

// fig2 is the paper's Figure 2 sync-on campaign: contiguous 64 MiB writes
// per process, HDD/SSD/RAM series, two alone baselines and five δ points
// each, at scale 8.
type fig2 struct {
	labels []string
	specs  []core.DeltaSpec
}

const fig2Scale = 8

func setupFig2(seed uint64, size sizing) (workload, error) {
	scale := fig2Scale
	if size.tiny {
		scale = 16
	}
	w := &fig2{}
	for _, b := range []cluster.BackendKind{cluster.HDD, cluster.SSD, cluster.RAM} {
		cfg := paper.Config(scale)
		cfg.Backend = b
		cfg.Sync = pfs.SyncOn
		cfg.Seed = seed
		apps := core.TwoAppSpecs(cfg, paper.ProcsPerApp(cfg), cfg.CoresPerNode, paper.ContigSpec())
		spec := core.DeltaSpec{Cfg: cfg, Apps: apps, Deltas: core.Deltas(20, 40)}
		if err := validate(cfg, 1, deltaRuns(spec)...); err != nil {
			return nil, err
		}
		w.labels = append(w.labels, b.String())
		w.specs = append(w.specs, spec)
	}
	return w, nil
}

func (w *fig2) run() (func() outcome, []float64) {
	graphs := serial.RunDeltas(w.specs)
	return func() outcome { return w.check(graphs) }, nil
}

func (w *fig2) close() {}

// sims counts the simulations of one campaign.
func (w *fig2) sims() int {
	n := 0
	for _, s := range w.specs {
		n += len(s.Apps) + len(s.Deltas)
	}
	return n
}

// check renders the campaign and verifies, for every co-run, that the
// devices stored exactly the bytes the applications wrote, and at δ=0
// (full overlap, FIFO servers) that no application ran faster than alone.
// At non-overlapping δ the trailing application draws a different part of
// the issue-jitter stream than its alone run, so its time may fall below
// the baseline; only δ=0 is an invariant.
func (w *fig2) check(graphs []*core.DeltaGraph) outcome {
	o := outcome{attempted: w.sims()}
	series := make([]paper.Series, len(graphs))
	for i, g := range graphs {
		series[i] = paper.Series{Label: w.labels[i], Graph: g}
		var bytes int64
		for _, a := range w.specs[i].Apps {
			bytes += a.TotalBytes()
		}
		for _, p := range g.Points {
			bad := p.Diag.DeviceBytes != bytes
			for a := range p.Elapsed {
				if p.Delta == 0 && p.Elapsed[a] < g.Alone[a] {
					bad = true
				}
			}
			if bad {
				o.failed++
			}
		}
	}
	o.digest = digestOf(renderTSV(
		paper.RenderSeries("fig2-contig: write time and IF vs delta (sync on)", series),
		paper.RenderAlone("fig2-contig: alone baselines", series)))
	return o
}

// --- qos-mixed-ssd -------------------------------------------------------

// qosMixNames are the builtins of the QoS workload: reads beside writes,
// barrier programs and small strided requests.
var qosMixNames = []string{"checkpoint-vs-read", "periodic-checkpoint-4", "elephant-mice"}

// qosMix sweeps every standard QoS scheme over three mixed read/write
// builtins on SSD and observes one co-run of each.
type qosMix struct {
	scens   []scenario.Spec
	specs   []core.DeltaSpec
	schemes []core.Scheme
	ocfg    obs.Config
}

// qosMixOut is one iteration's output.
type qosMixOut struct {
	sweeps []*core.Sweep
	runs   []core.RunResult
}

func setupQoSMix(seed uint64, size sizing) (workload, error) {
	w := &qosMix{schemes: core.StandardSchemes(), ocfg: obs.DefaultConfig()}
	if err := w.ocfg.Validate(); err != nil {
		return nil, err
	}
	for _, name := range qosMixNames {
		s, err := scenario.Lookup(name)
		if err != nil {
			return nil, err
		}
		if size.tiny {
			s = s.Smoke()
		}
		_, spec, err := s.Build(cluster.SSD)
		if err != nil {
			return nil, err
		}
		spec.Cfg.Seed = seed
		for _, sc := range w.schemes {
			if err := sc.QoS.Validate(); err != nil {
				return nil, err
			}
			arm := spec
			arm.Cfg.Srv.QoS = sc.QoS
			if err := validate(arm.Cfg, 1, deltaRuns(arm)...); err != nil {
				return nil, err
			}
		}
		w.scens = append(w.scens, s)
		w.specs = append(w.specs, spec)
	}
	return w, nil
}

func (w *qosMix) run() (func() outcome, []float64) {
	var out qosMixOut
	for _, spec := range w.specs {
		out.sweeps = append(out.sweeps, serial.RunMitigationSweep(spec, w.schemes))
		x := core.PrepareSharded(spec.Cfg, spec.AppsAt(0), 1)
		x.Observe(w.ocfg)
		out.runs = append(out.runs, x.Run())
	}
	return func() outcome { return w.check(out) }, nil
}

func (w *qosMix) close() {}

func (w *qosMix) sims() int {
	n := 0
	for _, s := range w.specs {
		n += len(w.schemes)*(len(s.Apps)+len(s.Deltas)) + 1
	}
	return n
}

// check renders every sweep and timeline and verifies that each span
// table's net + queue + service stages sum to its total.
func (w *qosMix) check(out qosMixOut) outcome {
	o := outcome{attempted: w.sims()}
	var text strings.Builder
	for i, s := range w.scens {
		title := fmt.Sprintf("qos-mixed-ssd: %s", s.Name)
		text.WriteString(renderTSV(
			qosreport.RenderPareto(title+" Pareto", out.sweeps[i]),
			qosreport.RenderSweepGraphs(title+" graphs", out.sweeps[i], scenario.AppNames(s))))
		tl, err := scenario.TimelineText(s.Name, cluster.SSD, out.runs[i], true)
		if err != nil || !spansSum(out.runs[i].Timeline) {
			o.failed++
		}
		text.WriteString(tl)
	}
	o.digest = digestOf(text.String())
	return o
}

// spansSum reports whether every application's span stages add up to its
// total (and that spans were collected at all).
func spansSum(tl *obs.Timeline) bool {
	if tl == nil || len(tl.Spans) == 0 {
		return false
	}
	for _, st := range tl.Spans {
		if st.SumNet+st.SumQueue+st.SumService != st.SumTotal {
			return false
		}
	}
	return true
}

// --- fleet-1024 ----------------------------------------------------------

// fleet summarizes the 1024-tenant fleet builtin on the sharded kernel:
// one co-run of every tenant, one alone run per tenant shape and the
// sampled pair co-runs. The population and pair sample keep the builtin's
// seed; the run seed drives the platform's issue jitter.
type fleet struct {
	scen     scenario.Spec
	expanded scenario.Spec
	spec     core.DeltaSpec
	fr       scenario.FleetResult
	opts     core.FleetOpts
	pool     core.Runner
}

func setupFleet(seed uint64, size sizing) (workload, error) {
	s, err := scenario.Lookup("fleet")
	if err != nil {
		return nil, err
	}
	if size.tiny {
		s = s.Smoke()
	}
	es, tenants, err := scenario.ExpandPopulation(s)
	if err != nil {
		return nil, err
	}
	backends, err := s.Backends()
	if err != nil {
		return nil, err
	}
	_, spec, err := es.Build(backends[0])
	if err != nil {
		return nil, err
	}
	spec.Cfg.Seed = seed
	if err := validate(spec.Cfg, fleetShards(), spec.AppsAt(0)); err != nil {
		return nil, err
	}
	return &fleet{
		scen: s, expanded: es, spec: spec,
		fr:   scenario.FleetResult{Spec: s, Expanded: es, Backend: backends[0], Cfg: spec.Cfg, Tenants: tenants},
		opts: core.FleetOpts{SamplePairs: s.Population.SamplePairs, SampleSeed: s.Population.Seed},
		pool: core.Runner{Parallelism: 1, Shards: fleetShards()},
	}, nil
}

func (w *fleet) run() (func() outcome, []float64) {
	f := w.pool.RunFleet(w.spec, w.opts)
	return func() outcome { return w.check(f) }, nil
}

func (w *fleet) close() {}

// check renders the fleet summary and verifies that the co-run's devices
// moved exactly the bytes the tenants asked for and every tenant finished.
func (w *fleet) check(f *core.FleetResult) outcome {
	o := outcome{attempted: 1 + f.Shapes + len(f.Pairs)}
	fr := w.fr
	fr.Core = f
	var bytes int64
	for _, a := range f.CoRun.Apps {
		bytes += a.Bytes
		if a.Elapsed <= 0 {
			o.failed++
		}
	}
	if f.CoRun.Diag.DeviceBytes != bytes {
		o.failed++
	}
	o.digest = digestOf(renderTSV(
		scenario.RenderFleetSummary([]*scenario.FleetResult{&fr}),
		scenario.RenderFleetClasses(&fr),
		scenario.RenderFleetSlowdown(&fr),
		scenario.RenderFleetPairs(&fr, 10)))
	return o
}
