// Package core is the experiment harness reproducing — and generalizing —
// the paper's methodology: N applications (groups of processes on disjoint
// compute nodes) perform collective I/O phases against a shared parallel
// file system while one parameter of the I/O path is varied. The package
// provides single runs, δ-graphs (the paper's reporting device: the time to
// complete an I/O phase as a function of the delay δ between the leading
// application's burst and the rest, each point an independent experiment),
// per-app completion vectors, pairwise interference-factor matrices
// (RunDeltaPairwise), fleet summaries, interference and fairness metrics,
// the local disk-level interference experiment of Table I, and
// tcpdump-like probes for TCP window and progress traces.
//
// The paper itself only ever co-runs two applications; TwoAppSpecs builds
// that canonical pair, and a two-app DeltaSpec reproduces the paper's
// figures bit-for-bit. Everything else — DeltaSpec, RunDelta, Runner —
// takes an arbitrary application list, which is what the scenario layer
// (internal/scenario) drives.
//
// Every simulation is deterministic and self-contained: Prepare builds a
// fresh cluster.Platform with its own event engine, so distinct runs share
// no state. Every Runner method — δ-graphs, mitigation sweeps, pairwise
// matrices, fleets — lists its simulations as jobs, runs the list on one
// bounded worker pool and reduces the results, byte-identical at any
// parallelism.
package core

import (
	"fmt"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/mpisim"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// AppSpec describes one application of an experiment.
type AppSpec struct {
	// Name labels the application in results ("A", "B").
	Name string
	// Procs is the number of processes.
	Procs int
	// FirstNode and ProcsPerNode place processes: process i runs on
	// compute node FirstNode + i/ProcsPerNode. Applications in the paper
	// occupy disjoint 30-node sets with 16 processes per node.
	FirstNode    int
	ProcsPerNode int
	// Workload is the one I/O burst each process performs when Program is
	// nil: the paper's microbenchmark.
	Workload workload.Spec
	// Program, when non-nil, replaces Workload with a multi-phase workload
	// program (compute think time, barriers, repeated bursts — see
	// workload.Program). Every app runs a program: a nil Program runs
	// workload.Single(Workload), whose one io phase is the burst alone.
	Program *workload.Program
	// TargetServers stripes the application's file over a subset of
	// servers (nil = all servers) — the paper's "targeted servers" knob.
	TargetServers []int
	// Stripe overrides the platform stripe size when positive.
	Stripe int64
	// Start is the absolute burst start time.
	Start sim.Time
}

// Validate checks the spec against a platform configuration.
func (a AppSpec) Validate(cfg cluster.Config) error {
	if a.Procs <= 0 {
		return fmt.Errorf("core: app %q needs procs > 0", a.Name)
	}
	if a.ProcsPerNode <= 0 {
		return fmt.Errorf("core: app %q needs ProcsPerNode > 0", a.Name)
	}
	if a.FirstNode < 0 || a.lastNode() >= cfg.ComputeNodes {
		return fmt.Errorf("core: app %q spans nodes %d..%d beyond the %d-node platform",
			a.Name, a.FirstNode, a.lastNode(), cfg.ComputeNodes)
	}
	return a.program().Validate()
}

// lastNode returns the last compute node the application's processes use.
func (a AppSpec) lastNode() int { return a.FirstNode + (a.Procs-1)/a.ProcsPerNode }

// program resolves the spec to the program its processes run: Program, or
// else Workload as a one-phase program.
func (a AppSpec) program() *workload.Program {
	if a.Program != nil {
		return a.Program
	}
	return workload.Single(a.Workload)
}

// TotalBytes returns the bytes the application moves over its whole program
// (all processes, all iterations).
func (a AppSpec) TotalBytes() int64 { return a.program().TotalBytes(a.Procs) }

// App is an instantiated application within an experiment.
type App struct {
	Spec AppSpec
	// Program is the program every process runs, resolved from Spec once.
	Program *workload.Program
	File    *pfs.File
	Clients []*pfs.Client
	Timer   *mpisim.PhaseTimer
	// Barrier is the application-wide rendezvous of program barrier phases
	// (nil when the program has none).
	Barrier *mpisim.Barrier
}

// Experiment is a prepared (but not yet run) simulation. Probes may be
// attached between Prepare and Run.
type Experiment struct {
	Platform *cluster.Platform
	Apps     []*App

	obs *obs.Collector
}

// Prepare builds the platform and applications on the serial engine.
func Prepare(cfg cluster.Config, specs []AppSpec) *Experiment {
	return PrepareSharded(cfg, specs, 1)
}

// PrepareSharded is Prepare on a sharded platform: `shards` event engines
// (clients on shard 0, servers spread over the rest — see
// cluster.BuildSharded). shards <= 1 is the bit-identical serial path;
// every shard count produces bit-identical results by the sharded kernel's
// determinism contract, though more slowly than serial on every workload
// measured so far.
func PrepareSharded(cfg cluster.Config, specs []AppSpec, shards int) *Experiment {
	pl := cluster.BuildSharded(cfg, shards)
	x := &Experiment{Platform: pl}
	for ai, spec := range specs {
		if err := spec.Validate(cfg); err != nil {
			panic(err)
		}
		stripe := spec.Stripe
		if stripe <= 0 {
			stripe = cfg.StripeSize
		}
		app := &App{
			Spec:    spec,
			Program: spec.program(),
			File:    pl.FS.CreateFile(spec.Name, spec.TargetServers, stripe),
			Timer:   mpisim.NewPhaseTimer(pl.E, spec.Procs),
		}
		if app.Program.Barriers() > 0 {
			app.Barrier = mpisim.NewBarrier(spec.Procs)
		}
		for i := 0; i < spec.Procs; i++ {
			node := spec.FirstNode + i/spec.ProcsPerNode
			cl := pl.FS.NewClient(pl.Nodes[node], ai)
			cl.Rank = i
			app.Clients = append(app.Clients, cl)
		}
		x.Apps = append(x.Apps, app)
	}
	return x
}

// Observe attaches the deterministic sim-time observability layer (see
// internal/obs) to a prepared experiment: periodic per-app × per-server
// samples plus request spans, all collected on the engines that own the
// probed state. Call between Prepare and Run; the run's RunResult then
// carries the Timeline. Sampling is read-only — results are byte-identical
// to an unobserved run.
func (x *Experiment) Observe(cfg obs.Config) *obs.Collector {
	x.obs = obs.Attach(x.Platform, len(x.Apps), cfg)
	return x.obs
}

// AttachWindowTrace pre-dials the connection from the given client of the
// given app to the given server of that app's file and attaches a trace —
// the simulator's tcpdump (Figures 10 and 11).
func (x *Experiment) AttachWindowTrace(app, clientIdx, serverPos int) *netsim.Trace {
	a := x.Apps[app]
	srv := a.File.Servers()[serverPos]
	c := a.Clients[clientIdx].ConnTo(srv)
	c.Trace = netsim.NewTrace()
	return c.Trace
}

// launch spawns every process of every application.
func (x *Experiment) launch() {
	e := x.Platform.E
	for _, app := range x.Apps {
		app := app
		for rank := 0; rank < app.Spec.Procs; rank++ {
			rank := rank
			cl := app.Clients[rank]
			e.Spawn(app.Spec.Name+"/"+strconv.Itoa(rank), func(p *sim.Proc) {
				if app.Spec.Start > 0 {
					p.Sleep(app.Spec.Start)
				}
				app.Timer.Enter(p)
				runProgram(p, x.Platform.FS, cl, app, rank)
				app.Timer.Done()
			})
		}
	}
}

// Burst issues n requests from cl on f at queue depth qd: one blocking
// request at a time when qd <= 1, otherwise up to qd in flight, returning
// once all n have completed. step(i) runs on p just before request i is
// issued (after its queue-depth slot is free): it takes whatever pause
// precedes the request and returns the request's extent and direction. It
// is the issue loop of every workload burst and of the trace replayer.
// Retries, and the stall-and-resume of requests that run out of them, are
// the pfs client's business; n == 0 issues nothing.
func Burst(p *sim.Proc, cl *pfs.Client, f *pfs.File, qd, n int, step func(i int) (off, size int64, read bool)) {
	if qd <= 1 {
		for i := 0; i < n; i++ {
			if off, size, read := step(i); read {
				cl.Read(p, f, off, size)
			} else {
				cl.Write(p, f, off, size)
			}
		}
		return
	}
	if n == 0 {
		return
	}
	sem := sim.NewSemaphore(qd)
	gate := sim.NewGate(n)
	done := func() {
		sem.Release()
		gate.Done()
	}
	for i := 0; i < n; i++ {
		sem.Acquire(p)
		if off, size, read := step(i); read {
			cl.ReadAsync(f, off, size, done)
		} else {
			cl.WriteAsync(f, off, size, done)
		}
	}
	gate.Wait(p)
}

// BarrierWait enters the application barrier bar on p and, when fs has a
// trace sink, records the wait as a barrier record of cl's rank: issued at
// entry, completed at release.
func BarrierWait(p *sim.Proc, fs *pfs.FileSystem, cl *pfs.Client, bar *mpisim.Barrier) {
	idx := -1
	sink := fs.Sink
	if sink != nil {
		idx = sink.BeginRequest(pfs.IORecord{
			Time: p.Now(), App: int32(cl.App), Rank: int32(cl.Rank),
			Server: -1, Op: pfs.OpBarrier,
		})
	}
	bar.Wait(p)
	if sink != nil {
		sink.EndRequest(idx)
	}
}

// AppResult is the outcome of one application's I/O phase.
type AppResult struct {
	Name       string
	Start      sim.Time
	End        sim.Time
	Elapsed    sim.Time
	Bytes      int64
	Throughput float64 // bytes per second
}

// Diag aggregates platform-wide diagnostics of a run — the quantities the
// paper uses to explain its results.
type Diag struct {
	PortDrops   int64 // segments tail-dropped at server ports (incast)
	Timeouts    int64 // TCP retransmission timeouts
	RetransSegs int64
	DeviceSeeks int64
	DeviceBytes int64
	CacheBlocks int64 // writes stalled on the dirty limit
	Events      uint64
	Avail       AvailDiag // availability counters (all zero without faults)
}

// AvailDiag aggregates the platform's availability telemetry: server-side
// outage accounting and the client retry layer's counters. Everything is
// zero on a fault-free platform.
type AvailDiag struct {
	Crashes        int64    // fail-stop events across all servers
	Downtime       sim.Time // summed server downtime
	DiscardedBytes int64    // wire bytes servers read and threw away
	LinkDrops      int64    // segments dropped by down links / loss bursts
	RPCTimeouts    int64    // client sub-request deadline expirations
	Retries        int64    // client resends
	Failures       int64    // sub-requests that ran out of retries
	GoodputBytes   int64    // chunk bytes actually stored or returned
	OfferedBytes   int64    // chunk bytes clients pushed at servers
}

// RunResult is the outcome of a single experiment run. Timeline is only
// set when the experiment was Observed (see internal/obs).
type RunResult struct {
	Apps     []AppResult
	Diag     Diag
	Timeline *obs.Timeline `json:",omitempty"`
}

// Run launches all applications, drives the simulation to completion and
// collects results.
func (x *Experiment) Run() RunResult {
	x.launch()
	x.Platform.Run()
	return x.collect()
}

func (x *Experiment) collect() RunResult {
	var res RunResult
	for _, app := range x.Apps {
		if !app.Timer.Finished() {
			panic(fmt.Sprintf("core: app %q did not finish (deadlock?)", app.Spec.Name))
		}
		bytes := app.Program.TotalBytes(app.Spec.Procs)
		elapsed := app.Timer.Elapsed()
		res.Apps = append(res.Apps, AppResult{
			Name:       app.Spec.Name,
			Start:      app.Timer.Start(),
			End:        app.Timer.End(),
			Elapsed:    elapsed,
			Bytes:      bytes,
			Throughput: sim.Rate(bytes, elapsed),
		})
	}
	pl := x.Platform
	for _, h := range pl.Fabric.Hosts() {
		res.Diag.PortDrops += h.Stats().PortDrops
	}
	for _, c := range pl.Fabric.Conns() {
		st := c.Stats()
		res.Diag.Timeouts += st.Timeouts
		res.Diag.RetransSegs += st.RetransSegs
	}
	for _, d := range pl.Devices {
		res.Diag.DeviceSeeks += d.Stats().Seeks
		res.Diag.DeviceBytes += d.Stats().Bytes
	}
	for _, c := range pl.Caches {
		if c != nil {
			res.Diag.CacheBlocks += c.BlockedWrites()
		}
	}
	av := &res.Diag.Avail
	for _, s := range pl.Servers {
		a := s.Tel.Avail(s.E.Now())
		av.Crashes += a.Crashes
		av.Downtime += a.Downtime
		av.DiscardedBytes += a.DiscardedBytes
		av.GoodputBytes += s.Tel.GoodputBytes()
		av.OfferedBytes += s.Tel.OfferedBytes()
	}
	av.LinkDrops = pl.Fabric.TotalLinkDrops()
	ca := pl.FS.TotalClientAvail()
	av.RPCTimeouts, av.Retries, av.Failures = ca.Timeouts, ca.Retries, ca.Failures
	res.Diag.Events = pl.EventsExecuted()
	if x.obs != nil {
		names := make([]string, len(x.Apps))
		for i, app := range x.Apps {
			names[i] = app.Spec.Name
		}
		res.Timeline = x.obs.Timeline(names)
	}
	return res
}

// TwoAppSpecs builds the paper's canonical pair of equal applications: each
// with procs processes at ppn per node, application A on the first half of
// the node range, B on the second half. It is AppSpecs(cfg, 2, ...).
func TwoAppSpecs(cfg cluster.Config, procs, ppn int, wl workload.Spec) []AppSpec {
	return AppSpecs(cfg, 2, procs, ppn, wl)
}

// AppSpecs builds n equal applications of procs processes at ppn per node,
// packed onto consecutive disjoint node ranges and named "A", "B", "C", …
// (then "app26", "app27", … beyond the alphabet). It is the N-app analogue
// of the paper's canonical A/B pair.
func AppSpecs(cfg cluster.Config, n, procs, ppn int, wl workload.Spec) []AppSpec {
	nodesPer := (procs + ppn - 1) / ppn
	out := make([]AppSpec, n)
	for i := 0; i < n; i++ {
		out[i] = AppSpec{
			Name:         AppName(i),
			Procs:        procs,
			FirstNode:    i * nodesPer,
			ProcsPerNode: ppn,
			Workload:     wl,
		}
	}
	return out
}

// AppName returns the conventional name of application i: "A".."Z", then
// "app26", "app27", …
func AppName(i int) string {
	if i >= 0 && i < 26 {
		return string(rune('A' + i))
	}
	return fmt.Sprintf("app%d", i)
}
