package repro

// One benchmark per table and figure of the paper, plus ablations. Each
// bench runs a scaled-down version of the experiment (scale divisor 8,
// coarse δ grids — see internal/paper for what scaling preserves) and
// reports the headline quantities as custom metrics:
//
//	IF        peak interference factor (paper: ~2 at δ=0, Table II)
//	unfair    T(second app)/T(first app) on overlapping δ≠0 points
//	          (>1 means the first application wins, the incast signature)
//	alone_s   single-application baseline, seconds of simulated time
//
// Absolute ns/op is simulator wall-clock, useful only to track the
// simulator's own performance. The δ-graph benches run the parallel
// experiment paths (paper.Pool and core.Runner at GOMAXPROCS workers) so
// their numbers track the speed a real campaign sees; metric values are
// identical to the serial path by the runner's determinism guarantee.
// Table1, Figure 11 and the simulator microbenches are single simulations
// and stay serial.

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/paper"
	"repro/internal/pfs"
	"repro/internal/qos"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

const benchScale = 8

// benchPool fans each ablation's independent simulations out over all cores,
// like paper.Pool does for the figure benches.
var benchPool core.Runner

func reportSeries(b *testing.B, series []paper.Series) {
	b.Helper()
	if len(series) == 0 {
		return
	}
	peak, unfair := 0.0, 0.0
	for _, s := range series {
		if v := s.Graph.PeakIF(); v > peak {
			peak = v
		}
		if v := s.Graph.Unfairness(); v > unfair {
			unfair = v
		}
	}
	b.ReportMetric(peak, "IF")
	b.ReportMetric(unfair, "unfair")
	b.ReportMetric(series[0].Graph.Alone[0].Seconds(), "alone_s")
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := paper.Table1()
		b.ReportMetric(rows[0].Slowdown, "hdd_x")
		b.ReportMetric(rows[1].Slowdown, "ssd_x")
		b.ReportMetric(rows[2].Slowdown, "ram_x")
	}
}

func BenchmarkFigure2SyncOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, paper.Fig2(benchScale, true, paper.GridCoarse))
	}
}

func BenchmarkFigure2SyncOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, paper.Fig2(benchScale, false, paper.GridCoarse))
	}
}

func BenchmarkFigure3SyncOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, paper.Fig3(benchScale, true, paper.GridCoarse))
	}
}

func BenchmarkFigure3SyncOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, paper.Fig3(benchScale, false, paper.GridCoarse))
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := paper.Fig4(benchScale, paper.GridCoarse)
		reportSeries(b, s)
		// The headline: 16 clients/node is unfair, 1 client/node is not.
		b.ReportMetric(s[0].Graph.Unfairness(), "unfair_16cpn")
		b.ReportMetric(s[1].Graph.Unfairness(), "unfair_1cpn")
	}
}

func BenchmarkFigure5SyncOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, paper.Fig5(benchScale, true, paper.GridCoarse))
	}
}

func BenchmarkFigure5SyncOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := paper.Fig5(benchScale, false, paper.GridCoarse)
		reportSeries(b, s)
		// The counterintuitive result: 1 G is interference-free.
		b.ReportMetric(s[0].Graph.PeakIF(), "IF_10G")
		b.ReportMetric(s[1].Graph.PeakIF(), "IF_1G")
	}
}

func BenchmarkFigure6AndTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, series := paper.Fig6(benchScale, []int{4, 8, 12, 24}, paper.GridCoarse)
		reportSeries(b, series)
		b.ReportMetric(pts[len(pts)-1].MaxBps/1e9, "maxGBps")
		b.ReportMetric(pts[len(pts)-1].PeakIF, "IF_mostServers")
		b.ReportMetric(pts[0].PeakIF, "IF_fewestServers")
	}
}

func BenchmarkFigure7HDD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := paper.Fig7(benchScale, cluster.HDD, paper.GridCoarse)
		reportSeries(b, s)
		b.ReportMetric(s[0].Graph.PeakIF(), "IF_shared")
		b.ReportMetric(s[1].Graph.PeakIF(), "IF_split")
	}
}

func BenchmarkFigure7RAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := paper.Fig7(benchScale, cluster.RAM, paper.GridCoarse)
		reportSeries(b, s)
		b.ReportMetric(s[1].Graph.PeakIF(), "IF_split")
	}
}

func BenchmarkFigure8SyncOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, paper.Fig8(benchScale, true, []int64{64 << 10, 256 << 10}, paper.GridCoarse))
	}
}

func BenchmarkFigure8SyncOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, paper.Fig8(benchScale, false, []int64{64 << 10, 256 << 10}, paper.GridCoarse))
	}
}

func BenchmarkFigure9SyncOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, paper.Fig9(benchScale, true, []int64{64 << 10, 512 << 10}, paper.GridCoarse))
	}
}

func BenchmarkFigure9SyncOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := paper.Fig9(benchScale, false, []int64{64 << 10, 512 << 10}, paper.GridCoarse)
		reportSeries(b, s)
		b.ReportMetric(s[0].Graph.PeakIF(), "IF_64K")
		b.ReportMetric(s[1].Graph.PeakIF(), "IF_512K")
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		alone, contended := paper.Fig10(benchScale)
		b.ReportMetric(alone.MinWnd(), "minwnd_alone")
		b.ReportMetric(contended.MinWnd(), "minwnd_contended")
		b.ReportMetric(alone.MaxWnd(), "maxwnd_alone")
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := paper.Fig11(benchScale)
		b.ReportMetric(res.TraceA.MaxWnd(), "maxwnd_A")
		b.ReportMetric(res.TraceB.MaxWnd(), "maxwnd_B")
		// B's progress fraction at 2/3 of the run — low if starved.
		b.ReportMetric(100*res.TraceB.ProgressAt(res.End*2/3, res.TotalB), "B_progress_pct")
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := paper.Fig12(benchScale, []int{128, 512, 960}, paper.GridCoarse)
		reportSeries(b, s)
		b.ReportMetric(s[0].Graph.Unfairness(), "unfair_fewest")
		b.ReportMetric(s[len(s)-1].Graph.Unfairness(), "unfair_most")
	}
}

// --- Ablations: isolating one root cause at a time ------------------------

// BenchmarkAblationSeekCost isolates the disk-level root cause: the same
// contended contiguous run with the real seek penalty and with a seek-free
// disk (perfect locality). The gap is the seek amplification share of the
// interference the paper attributes to the backend (§IV-A1).
func BenchmarkAblationSeekCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(seek sim.Time) float64 {
			cfg := paper.Config(benchScale)
			cfg.HDD.Seek = seek
			apps := core.TwoAppSpecs(cfg, paper.ProcsPerApp(cfg), cfg.CoresPerNode, paper.ContigSpec())
			g := benchPool.RunDelta(core.DeltaSpec{Cfg: cfg, Apps: apps, Deltas: core.Deltas()})
			return g.At(0).Elapsed[0].Seconds()
		}
		b.ReportMetric(run(6500*sim.Microsecond), "with_seeks_s")
		b.ReportMetric(run(0), "seek_free_s")
	}
}

// BenchmarkAblationInfinitePort removes the switch port limit: no incast
// drops, so any residual unfairness comes from request queueing alone.
func BenchmarkAblationInfinitePort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(portBuf int64) (float64, int64) {
			cfg := paper.Config(benchScale)
			cfg.Net.PortBuf = portBuf
			apps := core.TwoAppSpecs(cfg, paper.ProcsPerApp(cfg), cfg.CoresPerNode, paper.ContigSpec())
			g := benchPool.RunDelta(core.DeltaSpec{Cfg: cfg, Apps: apps, Deltas: core.Deltas(10)})
			return g.Unfairness(), g.At(0).Diag.PortDrops
		}
		u1, d1 := run(1 << 20)
		u2, d2 := run(1 << 40)
		b.ReportMetric(u1, "unfair_1MBport")
		b.ReportMetric(u2, "unfair_infport")
		b.ReportMetric(float64(d1), "drops_1MBport")
		b.ReportMetric(float64(d2), "drops_infport")
	}
}

// BenchmarkAblationPolicy compares server request-scheduling policies —
// FIFO (PVFS) against the related work's round-robin order — as a
// two-arm mitigation sweep.
func BenchmarkAblationPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := paper.Config(benchScale)
		apps := core.TwoAppSpecs(cfg, paper.ProcsPerApp(cfg), cfg.CoresPerNode, paper.ContigSpec())
		sw := benchPool.RunMitigationSweep(core.DeltaSpec{Cfg: cfg, Apps: apps, Deltas: core.Deltas(10)},
			[]core.Scheme{{Name: "fifo"}, {Name: "rr", QoS: qos.Params{Kind: qos.RoundRobin}}})
		b.ReportMetric(sw.Graphs[0].Unfairness(), "unfair_fifo")
		b.ReportMetric(sw.Graphs[1].Unfairness(), "unfair_rr")
	}
}

// BenchmarkReadInterference is the paper's future-work read/read variant.
func BenchmarkReadInterference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := paper.Config(benchScale)
		wl := workload.Spec{Pattern: workload.Contiguous, BlockBytes: paper.BlockBytes, Read: true}
		apps := core.TwoAppSpecs(cfg, paper.ProcsPerApp(cfg), cfg.CoresPerNode, wl)
		g := benchPool.RunDelta(core.DeltaSpec{Cfg: cfg, Apps: apps, Deltas: core.Deltas()})
		b.ReportMetric(g.PeakIF(), "IF")
		b.ReportMetric(g.Alone[0].Seconds(), "alone_s")
	}
}

// --- Sharded event kernel ---------------------------------------------------

// shardCounts is the shard axis of the sharded-kernel benches. shards=1 is
// the serial determinism oracle; the other counts split the servers over
// more shards. Results are bit-identical at every count (the scenario
// conformance suite pins this), and ShardSet.Run steps every window on
// one goroutine, so these benches measure the windowing's cost against
// the serial engine.
var shardCounts = []int{1, 2, 4}

// BenchmarkShardedFigure2 runs the paper's Figure 2 contended co-run (two
// contiguous writers, sync on) as ONE simulation per iteration at each
// shard count. Scale divisor 4 keeps 3 servers so shards=4 reaches the
// maximal clients+servers split.
func BenchmarkShardedFigure2(b *testing.B) {
	cfg := paper.Config(4)
	apps := core.TwoAppSpecs(cfg, paper.ProcsPerApp(cfg), cfg.CoresPerNode, paper.ContigSpec())
	for _, k := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				res := core.PrepareSharded(cfg, apps, k).Run()
				events = res.Diag.Events
			}
			b.ReportMetric(float64(events), "events")
		})
	}
}

// BenchmarkShardedScenario runs a 12-server four-writer pile-up — enough
// server shards for the 4-shard split to matter on multi-core hosts — as
// one simulation per iteration at each shard count.
func BenchmarkShardedScenario(b *testing.B) {
	cfg := cluster.Default() // full 12-server platform
	wl := workload.Spec{BlockBytes: 16 << 20, TransferSize: 256 << 10}
	var apps []core.AppSpec
	for i := 0; i < 4; i++ {
		apps = append(apps, core.AppSpec{
			Name: core.AppName(i), Procs: 32,
			FirstNode: i * 2, ProcsPerNode: 16, Workload: wl,
		})
	}
	for _, k := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				res := core.PrepareSharded(cfg, apps, k).Run()
				events = res.Diag.Events
			}
			b.ReportMetric(float64(events), "events")
		})
	}
}

// --- Fleet-scale population --------------------------------------------------

// BenchmarkFleetScenario runs the generated 1024-tenant population builtin
// (internal/population) at smoke scale through the fleet summarizer: one
// 1024-app co-run, one alone baseline per distinct tenant shape and the
// seeded pairwise sample. Parallelism and shards are forced to 1 so ns/op
// measures the serial simulation path independent of the runner's core
// count — this is the largest single simulation in the bench suite and the
// one whose wall-clock tracks fleet-scale usability.
func BenchmarkFleetScenario(b *testing.B) {
	s, err := scenario.Lookup("fleet")
	if err != nil {
		b.Fatal(err)
	}
	s = s.Smoke()
	backends, err := s.Backends()
	if err != nil {
		b.Fatal(err)
	}
	pool := core.Runner{Parallelism: 1, Shards: 1}
	for i := 0; i < b.N; i++ {
		f, err := scenario.RunFleet(s, backends[0], pool)
		if err != nil {
			b.Fatal(err)
		}
		v := f.IFPercentiles(50, 95)
		b.ReportMetric(float64(len(f.Tenants)), "tenants")
		b.ReportMetric(float64(f.Core.Shapes), "shapes")
		b.ReportMetric(float64(f.Core.CoRun.Diag.Events), "events")
		b.ReportMetric(v[0], "p50_IF")
		b.ReportMetric(v[1], "p95_IF")
	}
}

// --- Microbenchmarks of the simulator itself -------------------------------

func BenchmarkEngineEventThroughput(b *testing.B) {
	e := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Schedule(sim.Microsecond, tick)
		}
	}
	b.ResetTimer()
	e.Schedule(0, tick)
	e.Run()
}

// BenchmarkEngineStandingQueue is the event loop under a standing queue:
// 256 pending events, each rescheduling itself 1–64 µs ahead — the depth
// the campaigns run at (the Figure 2 co-run averages 138 pending events).
// Delays have nanosecond resolution, so equal due times are as rare as they
// are in the campaigns. The delays are uniform and no two are due together,
// so an entry makes about 4 moves into a non-zero radix-queue bucket before
// it pops, where the Figure 2 co-run's clustered due times cost 0.91 such
// moves per event; both add 0.5–0.6 refill deliveries to bucket 0 per
// event (DESIGN.md).
// BenchmarkEngineEventThroughput keeps one event pending and times the loop
// alone.
func BenchmarkEngineStandingQueue(b *testing.B) {
	const depth = 256
	e := sim.NewEngine()
	rng := sim.NewRand(1)
	delay := func() sim.Time { return sim.Microsecond + sim.Time(rng.Int63n(int64(63*sim.Microsecond))) }
	left := b.N
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			e.Schedule(delay(), tick)
		}
	}
	for i := 0; i < depth; i++ {
		e.Schedule(delay(), tick)
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcHandoff times one proc wake-up: each op is one Step, which
// hands control to a proc sleeping in a loop and takes it back when the
// proc parks in its next Sleep. Every MPI rank blocks and wakes this way.
func BenchmarkProcHandoff(b *testing.B) {
	e := sim.NewEngine()
	e.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i <= b.N; i++ {
			p.Sleep(sim.Microsecond)
		}
	})
	e.Step() // start the proc; it parks in its first Sleep
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	if e.Run(); e.ProcsFinished() != 1 {
		b.Fatalf("sleeper did not finish: %d procs finished", e.ProcsFinished())
	}
}

// BenchmarkSemaphoreWake times the completion-token path every blocking
// pfs request takes (pfs.Client.ioWait): each op schedules an event that
// releases a Semaphore, parks a proc on it, and runs the release, which
// pops the proc from the waiter queue and hands control back to it.
func BenchmarkSemaphoreWake(b *testing.B) {
	e := sim.NewEngine()
	s := sim.NewSemaphore(0)
	release := s.Release
	e.Spawn("waiter", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			e.Schedule(sim.Microsecond, release)
			s.Acquire(p)
		}
	})
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	if e.ProcsFinished() != 1 || s.Waiting() != 0 {
		b.Fatalf("waiter did not finish: %d procs finished, %d waiting", e.ProcsFinished(), s.Waiting())
	}
}

func BenchmarkTransportThroughput(b *testing.B) {
	// One connection moving b.N segments of 64 KiB.
	e := sim.NewEngine()
	f := netsim.NewFabric(e, netsim.DefaultParams())
	src := f.NewHost("c", 1.25e9, 0)
	dst := f.NewHost("s", 1.25e9, 0)
	c := f.Dial(src, dst, 0)
	c.OnReadable = func(cc *netsim.Conn, m *netsim.Message) { cc.ReadHead() }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Send(&netsim.Message{Size: 64 << 10})
	}
	e.Run()
	b.SetBytes(64 << 10)
}

func BenchmarkHDDElevator(b *testing.B) {
	e := sim.NewEngine()
	d := cluster.NewDevice(e, cluster.Default())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Submit(&storage.Request{
			File:   storage.FileID(i % 4),
			Offset: int64(i) * (256 << 10),
			Size:   256 << 10,
		})
	}
	e.Run()
	b.SetBytes(256 << 10)
}

// hddManyFiles is a disk that has seen 1024 files, under a standing queue
// of 256 requests: each completion resubmits its request to the next file,
// streaming contiguously through that file, so the queue never drains and
// every decision switches files — the fleet's shape, where a disk holds
// one stream per tenant. The disk is warmed until every file has been
// served twice; each Step of the returned engine is then one completion,
// one submission and one elevator decision.
func hddManyFiles() *sim.Engine {
	const files, depth = 1024, 256
	e := sim.NewEngine()
	d := cluster.NewDevice(e, cluster.Default())
	var next [files]int64
	for i := 0; i < depth; i++ {
		r := &storage.Request{File: storage.FileID(i * files / depth), Size: 256 << 10}
		r.Offset = next[r.File]
		next[r.File] += r.Size
		r.Done = func() {
			r.File = (r.File + 1) % files
			r.Offset = next[r.File]
			next[r.File] += r.Size
			d.Submit(r)
		}
		d.Submit(r)
	}
	for i := 0; i < 2*files; i++ {
		e.Step()
	}
	return e
}

// BenchmarkHDDManyFiles times one elevator decision on a disk that has
// seen 1024 files. It stays flat only while the decision is O(1) in the
// files a disk has seen; a scan over them costs microseconds here.
func BenchmarkHDDManyFiles(b *testing.B) {
	e := hddManyFiles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// TestHDDManyFilesZeroAlloc pins that BenchmarkHDDManyFiles's steady state
// allocates nothing: per-file queues, the submission list and the
// completion event all reuse what the warm-up built.
func TestHDDManyFilesZeroAlloc(t *testing.T) {
	e := hddManyFiles()
	if got := testing.AllocsPerRun(4096, func() { e.Step() }); got != 0 {
		t.Fatalf("%.2f allocations per elevator decision, want 0", got)
	}
}

// BenchmarkTraceRecord measures the file system's steady-state record
// path (one BeginRecord + EndRecord pair, what the pfs client runs per
// request while recording is on). With capacity reserved the path must not
// allocate — b.ReportAllocs makes a regression loud, and CI's bench job
// pins the snapshot.
func BenchmarkTraceRecord(b *testing.B) {
	fs := pfs.NewFileSystem(sim.NewEngine(), nil, nil)
	fs.Record(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := fs.BeginRecord(pfs.IORecord{
			Time: sim.Time(i), Off: int64(i) << 18, Bytes: 256 << 10,
			App: int32(i & 3), Rank: int32(i & 15), Server: -1, QD: 1,
			Op: pfs.OpWrite,
		})
		fs.EndRecord(idx)
	}
}

// BenchmarkFairShareScheduler measures one grant decision of the
// deficit-round-robin QoS scheduler over a 64-request queue from four
// applications — the per-grant cost a QoS-enabled server adds to its pump
// loop. Steady state must not allocate (b.ReportAllocs makes a regression
// loud).
func BenchmarkFairShareScheduler(b *testing.B) {
	tel := qos.NewTelemetry(nil)
	tel.Arrive(0, 1<<20)
	tel.Arrive(1, 1<<20)
	s := qos.New(nil, qos.Params{Kind: qos.FairShare}, tel)
	q := make([]qos.Request, 64)
	for i := range q {
		size := int64(64 << 10)
		if i%4 == 0 {
			size = 1 << 20 // one elephant stream among small requests
		}
		q[i] = qos.Request{App: i % 4, Issued: sim.Time(i), Bytes: size}
	}
	s.Pick(0, q) // warm per-application state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Pick(sim.Time(i), q)
	}
}
