package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"time"

	"repro/bench/stats"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/whatif"
	iowl "repro/internal/workload"
)

// traced is the per-layer probe (--trace 1). Whatever the workload named,
// it re-executes one iteration of every workload call by call with spans
// around each call into a layer, under a CPU profile split by layer, and
// checks that the traced results equal an untraced iteration's; then it
// runs the layers' micro-benchmarks and a shard sweep. Spans go to
// <out>/<workload>.spans.json.
func traced(seed uint64, out string, size sizing) (*result, error) {
	res := &result{}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(out, "traced.cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	origin := time.Now()
	steps := []struct {
		workload string
		probe    func(seed uint64, size sizing, tr *tracer, res *result) error
	}{
		{"fig2-contig", probeFig2},
		{"qos-mixed-ssd", probeQoSMix},
		{"fleet-1024", probeFleet},
		{"whatifd-open", probeWhatif},
	}
	for _, st := range steps {
		tr := newTracer(origin)
		err := st.probe(seed, size, tr, res)
		if err == nil {
			err = tr.write(filepath.Join(out, st.workload+".spans.json"))
		}
		if err != nil {
			pprof.StopCPUProfile()
			pf.Close()
			return nil, fmt.Errorf("%s probe: %w", st.workload, err)
		}
	}
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return nil, err
	}
	shares, err := cpuShares(profPath)
	if err != nil {
		return nil, err
	}
	for _, l := range cpuShareLayers {
		res.set("runtime.cpu_share."+l, shares[l], "ratio", 1)
	}
	probeMicro(res)
	if err := probeShards(seed, size, res); err != nil {
		return nil, err
	}
	return res, nil
}

// layerCounts are one finished simulation's per-layer counters.
type layerCounts struct {
	events                                 uint64
	segments, retrans, portDrops, timeouts int64
	devOps, devSeeks                       int64
	devBusy, devSpan                       sim.Time // busy time; end time × devices
	requests, grants                       int64
	procs                                  int
}

func (c *layerCounts) add(o layerCounts) {
	c.events += o.events
	c.segments += o.segments
	c.retrans += o.retrans
	c.portDrops += o.portDrops
	c.timeouts += o.timeouts
	c.devOps += o.devOps
	c.devSeeks += o.devSeeks
	c.devBusy += o.devBusy
	c.devSpan += o.devSpan
	c.requests += o.requests
	c.grants += o.grants
	c.procs += o.procs
}

// countLayers reads the counters of a platform after its run.
func countLayers(pl *cluster.Platform) layerCounts {
	end := pl.E.Now()
	if pl.Set != nil {
		end = pl.Set.Now()
	}
	c := layerCounts{events: pl.EventsExecuted(), procs: pl.E.ProcsSpawned()}
	for _, conn := range pl.Fabric.Conns() {
		st := conn.Stats()
		c.segments += st.SentSegs
		c.retrans += st.RetransSegs
		c.timeouts += st.Timeouts
	}
	c.portDrops = pl.Fabric.TotalPortDrops()
	for _, d := range pl.Devices {
		st := d.Stats()
		c.devOps += st.Ops
		c.devSeeks += st.Seeks
		c.devBusy += st.Busy
		c.devSpan += end
	}
	for _, s := range pl.Servers {
		for i := 0; i < s.Tel.Apps(); i++ {
			st := s.Tel.App(i)
			c.requests += st.Requests
			c.grants += st.Granted
		}
	}
	return c
}

// simRun is one traced simulation.
type simRun struct {
	res              core.RunResult
	counts           layerCounts
	prepare, runTime time.Duration
}

// tracedSim prepares and runs one simulation inside a "sim" span with
// "prepare" and "run" children; observe attaches the observability layer.
func tracedSim(tr *tracer, parent int, cfg cluster.Config, apps []core.AppSpec, shards int, observe *obs.Config) simRun {
	var r simRun
	tr.timed("sim", parent, func(id int) {
		var x *core.Experiment
		r.prepare = tr.timed("prepare", id, func(int) {
			x = core.PrepareSharded(cfg, apps, shards)
			if observe != nil {
				x.Observe(*observe)
			}
		})
		r.runTime = tr.timed("run", id, func(int) { r.res = x.Run() })
		r.counts = countLayers(x.Platform)
	})
	return r
}

// tracedGraph runs a δ-graph call by call — alone baselines, then δ points
// — and returns it with the summed layer counters and phase times.
func tracedGraph(tr *tracer, parent int, spec core.DeltaSpec) (*core.DeltaGraph, layerCounts, time.Duration, time.Duration) {
	g := &core.DeltaGraph{Alone: make([]sim.Time, len(spec.Apps))}
	var c layerCounts
	var prep, run time.Duration
	for i, apps := range deltaRuns(spec) {
		r := tracedSim(tr, parent, spec.Cfg, apps, 1, nil)
		c.add(r.counts)
		prep += r.prepare
		run += r.runTime
		if i < len(spec.Apps) {
			g.Alone[i] = r.res.Apps[0].Elapsed
			continue
		}
		p := core.DeltaPoint{Delta: spec.Deltas[i-len(spec.Apps)], Diag: r.res.Diag}
		for a, ar := range r.res.Apps {
			p.Start = append(p.Start, apps[a].Start)
			p.Elapsed = append(p.Elapsed, ar.Elapsed)
			p.IF = append(p.IF, float64(ar.Elapsed)/float64(g.Alone[a]))
			p.Throughput = append(p.Throughput, ar.Throughput)
		}
		g.Points = append(g.Points, p)
	}
	return g, c, prep, run
}

// sameGraph compares the simulated results of a traced δ-graph with the
// untraced one: alone times, per-point elapsed times, IF values and event
// counts.
func sameGraph(a, b *core.DeltaGraph) bool {
	if !slices.Equal(a.Alone, b.Alone) || len(a.Points) != len(b.Points) {
		return false
	}
	for i, p := range a.Points {
		q := b.Points[i]
		if p.Delta != q.Delta || p.Diag.Events != q.Diag.Events ||
			!slices.Equal(p.Elapsed, q.Elapsed) || !slices.Equal(p.IF, q.IF) {
			return false
		}
	}
	return true
}

// countSame tallies one comparison of traced against untraced results.
func countSame(res *result, ok bool, what string) {
	res.account(1, 0)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: traced %s differs from the untraced run\n", what)
		res.account(0, 1)
	}
}

// cpuClasses reads the runtime's GC and total CPU-time estimates.
func cpuClasses() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// probeFig2 measures the kernel, netsim, storage and allocation layers on
// the paper campaign.
func probeFig2(seed uint64, size sizing, tr *tracer, res *result) error {
	wl, err := setupFig2(seed, size)
	if err != nil {
		return err
	}
	w := wl.(*fig2)
	// The first untraced iteration warms the process up and is the
	// reference; the second is the untraced time the traced one is set
	// against.
	var ref []*core.DeltaGraph
	tr.timed("iteration.warmup", 0, func(int) { ref = serial.RunDeltas(w.specs) })
	o := w.check(ref)
	res.account(o.attempted, o.failed)
	gc0, tot0 := cpuClasses()
	untraced := tr.timed("iteration.untraced", 0, func(int) { serial.RunDeltas(w.specs) })
	gc1, tot1 := cpuClasses()

	var c layerCounts
	var prep, run time.Duration
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tracedWall := tr.timed("iteration", 0, func(it int) {
		for i, spec := range w.specs {
			tr.timed("series."+w.labels[i], it, func(sid int) {
				g, sc, p, r := tracedGraph(tr, sid, spec)
				countSame(res, sameGraph(g, ref[i]), "fig2-contig series "+w.labels[i])
				c.add(sc)
				prep += p
				run += r
			})
		}
	})
	runtime.ReadMemStats(&m1)
	ev := float64(c.events)
	res.set("sim.events", ev, "count", 1)
	res.set("sim.ns_per_event", float64(run.Nanoseconds())/ev, "ns", 1)
	res.set("core.prepare_share.fig2", prep.Seconds()/(prep+run).Seconds(), "ratio", 1)
	res.set("netsim.segments", float64(c.segments), "count", 1)
	res.set("netsim.retrans_ratio", float64(c.retrans)/float64(c.segments), "ratio", 1)
	res.set("netsim.port_drops", float64(c.portDrops), "count", 1)
	res.set("netsim.timeouts", float64(c.timeouts), "count", 1)
	res.set("storage.ops", float64(c.devOps), "count", 1)
	res.set("storage.seeks", float64(c.devSeeks), "count", 1)
	res.set("storage.busy_util", float64(c.devBusy)/float64(c.devSpan), "ratio", 1)
	res.set("pfs.requests", float64(c.requests), "count", 1)
	res.set("runtime.allocs_per_event", float64(m1.Mallocs-m0.Mallocs)/ev, "count", 1)
	res.set("runtime.bytes_per_event", float64(m1.TotalAlloc-m0.TotalAlloc)/ev, "B", 1)
	res.set("runtime.gc_cpu_share", (gc1-gc0)/(tot1-tot0), "ratio", 1)
	res.set("trace.overhead_ratio", tracedWall.Seconds()/untraced.Seconds(), "ratio", 1)
	return nil
}

// probeQoSMix measures the QoS schedulers, the pfs span stages and the
// observability layer on the mixed read/write sweep.
func probeQoSMix(seed uint64, size sizing, tr *tracer, res *result) error {
	wl, err := setupQoSMix(seed, size)
	if err != nil {
		return err
	}
	w := wl.(*qosMix)
	var ref func() outcome
	tr.timed("iteration.untraced", 0, func(int) { ref, _ = w.run() })
	refOut := ref()
	res.account(refOut.attempted, refOut.failed)

	var c layerCounts
	var spans obs.SpanStats
	var dropped int64
	var out qosMixOut
	tr.timed("iteration", 0, func(it int) {
		for i, spec := range w.specs {
			sw := &core.Sweep{Schemes: w.schemes}
			for _, sc := range w.schemes {
				arm := spec
				arm.Cfg.Srv.QoS = sc.QoS
				tr.timed("sweep."+w.scens[i].Name+"."+sc.Name, it, func(id int) {
					g, gcounts, _, _ := tracedGraph(tr, id, arm)
					sw.Graphs = append(sw.Graphs, g)
					c.add(gcounts)
				})
			}
			out.sweeps = append(out.sweeps, sw)
			r := tracedSim(tr, it, spec.Cfg, spec.AppsAt(0), 1, &w.ocfg)
			c.add(r.counts)
			out.runs = append(out.runs, r.res)
			for _, st := range r.res.Timeline.Spans {
				spans.Count += st.Count
				spans.SumNet += st.SumNet
				spans.SumQueue += st.SumQueue
				spans.SumService += st.SumService
				spans.SumTotal += st.SumTotal
			}
			dropped += r.res.Timeline.SpansDropped
		}
	})
	// Pareto rows are derived from the graphs, so equal digests mean equal
	// simulated results.
	countSame(res, w.check(out).digest == refOut.digest, "qos-mixed-ssd iteration")
	total := float64(spans.SumTotal)
	res.set("qos.grants", float64(c.grants), "count", 1)
	res.set("pfs.net_share", float64(spans.SumNet)/total, "ratio", 1)
	res.set("pfs.queue_share", float64(spans.SumQueue)/total, "ratio", 1)
	res.set("pfs.service_share", float64(spans.SumService)/total, "ratio", 1)
	res.set("obs.spans", float64(spans.Count), "count", 1)
	res.set("obs.spans_dropped", float64(dropped), "count", 1)

	// Observation must be passive: the same co-run observed and not gives
	// the same results (the sampler's own probe events aside).
	spec := w.specs[0]
	var on, off []float64
	same := true
	for i := 0; i < 3; i++ {
		a := tracedSim(tr, 0, spec.Cfg, spec.AppsAt(0), 1, nil)
		b := tracedSim(tr, 0, spec.Cfg, spec.AppsAt(0), 1, &w.ocfg)
		off = append(off, (a.prepare + a.runTime).Seconds())
		on = append(on, (b.prepare + b.runTime).Seconds())
		da, db := a.res.Diag, b.res.Diag
		da.Events, db.Events = 0, 0
		same = same && da == db && slices.Equal(a.res.Apps, b.res.Apps)
	}
	countSame(res, same, "observed co-run")
	res.set("obs.overhead_ratio", stats.Median(on)/stats.Median(off), "ratio", len(on))
	return nil
}

// probeFleet measures population expansion, spec build and platform
// set-up against the run on the sharded 1024-tenant co-run.
func probeFleet(seed uint64, size sizing, tr *tracer, res *result) error {
	s, err := scenario.Lookup("fleet")
	if err != nil {
		return err
	}
	if size.tiny {
		s = s.Smoke()
	}
	var es scenario.Spec
	expand := tr.timed("expand", 0, func(int) { es, _, err = scenario.ExpandPopulation(s) })
	if err != nil {
		return err
	}
	build := tr.timed("build", 0, func(int) { _, _, err = es.Build(cluster.HDD) })
	if err != nil {
		return err
	}
	res.set("population.expand_ms", ms(expand), "ms", 1)
	res.set("scenario.build_ms", ms(build), "ms", 1)

	wl, err := setupFleet(seed, size)
	if err != nil {
		return err
	}
	w := wl.(*fleet)
	var ref *core.FleetResult
	tr.timed("iteration.untraced", 0, func(int) { ref = w.pool.RunFleet(w.spec, w.opts) })
	o := w.check(ref)
	res.account(o.attempted, o.failed)

	r := tracedSim(tr, 0, w.spec.Cfg, w.spec.AppsAt(0), w.pool.Shards, nil)
	countSame(res, r.res.Diag == ref.CoRun.Diag && slices.Equal(r.res.Apps, ref.CoRun.Apps), "fleet-1024 co-run")
	res.set("sim.procs_spawned", float64(r.counts.procs), "count", 1)
	res.set("core.sims", float64(1+ref.Shapes+len(ref.Pairs)), "count", 1)
	res.set("core.prepare_ms", ms(r.prepare), "ms", 1)
	res.set("core.run_ms", ms(r.runTime), "ms", 1)
	res.set("core.prepare_share", r.prepare.Seconds()/(r.prepare+r.runTime).Seconds(), "ratio", 1)
	res.set("storage.ops.fleet", float64(r.counts.devOps), "count", 1)
	res.set("storage.seeks.fleet", float64(r.counts.devSeeks), "count", 1)
	res.set("storage.busy_util.fleet", float64(r.counts.devBusy)/float64(r.counts.devSpan), "ratio", 1)
	return nil
}

// whatifClosedLoop is the number of requests the closed-loop passes send:
// enough for a p95 with ten samples beyond it.
const whatifClosedLoop = 200

// probeWhatif measures trace decoding, session compute, the HTTP layer
// and the baseline cache on the what-if service.
func probeWhatif(seed uint64, size sizing, tr *tracer, res *result) error {
	wl, err := setupWhatif(seed, size)
	if err != nil {
		return err
	}
	w := wl.(*whatifd)
	defer w.close()
	refs, _, err := w.references()
	if err != nil {
		return err
	}

	// Trace decoding of the uploaded recordings.
	var dec []float64
	records := 0
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		records = 0
		for _, c := range w.cat[w.nScenario:] {
			t, err := trace.Read(bytes.NewReader(c.body))
			if err != nil {
				return err
			}
			records += len(t.Records)
		}
		dec = append(dec, ms(time.Since(t0)))
	}
	res.set("trace.decode_ms", stats.Median(dec), "ms", len(dec))
	res.set("trace.micro_ns_per_record", stats.Median(dec)*1e6/float64(records), "ns", len(dec))

	// Closed loop: the request mix, one at a time, straight into Compute on
	// one fresh server and over HTTP to a second. The two servers see the
	// same sequence, so their caches agree request by request; each
	// request goes to both back to back, the first one alternating, so the
	// pair shares the process's state (heap size, collector pacing).
	n := whatifClosedLoop
	if size.tiny {
		n = 40
	}
	mix := whatifMix(w.nScenario, len(w.cat)-w.nScenario)
	var seq []int
	for seg := 0; len(seq) < n; seg++ {
		for _, a := range makeSchedule(seed, seg, w.perSeg, w.rate, mix) {
			seq = append(seq, a.query)
		}
	}
	seq = seq[:n]
	direct := newWhatifServer()
	defer direct.Close()
	compute := make([]float64, n)
	var over []float64
	for i, q := range seq {
		viaCompute := func() {
			id := tr.begin("compute", 0, i+1)
			rep, _, err := direct.Compute(w.cat[q].q)
			compute[i] = ms(tr.end(id))
			ok := err == nil
			if ok {
				b, merr := json.MarshalIndent(rep, "", "  ")
				ok = merr == nil && bytes.Equal(append(b, '\n'), refs[q])
			}
			countSame(res, ok, "what-if compute")
		}
		var lat time.Duration
		viaHTTP := func() {
			t0 := time.Now()
			status, body, err := w.send(q)
			lat = time.Since(t0)
			tr.add("request", 0, i+1, t0, t0.Add(lat))
			countSame(res, err == nil && status == http.StatusOK && bytes.Equal(body, refs[q]), "what-if HTTP reply")
		}
		if i%2 == 0 {
			viaCompute()
			viaHTTP()
		} else {
			viaHTTP()
			viaCompute()
		}
		over = append(over, ms(lat)-compute[i])
	}
	cs := direct.Cache().Stats()
	res.set("whatif.compute_ms_p50", stats.Median(compute), "ms", n)
	res.set("whatif.compute_ms_tail", stats.Percentile(compute, stats.TailPercentile(n)), "ms", n)
	res.set("whatif.cache_hits", float64(cs.Hits), "count", 1)
	res.set("whatif.cache_hit_ratio", float64(cs.Hits)/float64(cs.Hits+cs.Misses), "ratio", 1)
	res.set("whatif.cache_evictions", float64(cs.Evictions), "count", 1)
	res.set("whatif.cache_used_kb", float64(cs.UsedBytes)/1024, "KiB", 1)
	res.set("whatif.http_overhead_ms_p50", stats.Median(over), "ms", len(over))

	// Open loop at the benchmark's rate for two segments, polling /healthz
	// every 100 ms.
	stop := make(chan struct{})
	depth := make(chan int)
	go func() {
		peak := 0
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				depth <- peak
				return
			case <-tick.C:
				resp, err := w.client.Get(w.ts.URL + "/healthz")
				if err != nil {
					continue
				}
				var h whatif.Health
				if json.NewDecoder(resp.Body).Decode(&h) == nil {
					peak = max(peak, h.QueueDepth)
				}
				resp.Body.Close()
			}
		}
	}()
	var lag, lat []float64
	for i := 0; i < 2; i++ {
		sched, replies := w.segmentRun()
		o := w.check(sched, replies)
		res.account(o.attempted, o.failed)
		for k, r := range replies {
			lag = append(lag, ms(r.lag))
			lat = append(lat, ms(r.latency))
			tr.add("request.open", 0, i*len(replies)+k+1, r.due, r.due.Add(r.latency))
		}
	}
	close(stop)
	tail := stats.TailPercentile(len(lat))
	res.set("whatif.queue_depth_max", float64(<-depth), "count", 1)
	res.set("whatif.open_ms_p50", stats.Median(lat), "ms", len(lat))
	res.set("whatif.open_ms_tail", stats.Percentile(lat, tail), "ms", len(lat))
	res.set("loadgen.lag_tail_ms", stats.Percentile(lag, tail), "ms", len(lag))
	return nil
}

// probeMicro runs every layer's micro-benchmark.
func probeMicro(res *result) {
	res.set("sim.micro_ns_per_event", microEngine(), "ns", microReps)
	res.set("netsim.micro_ns_per_segment", microSegment(), "ns", microReps)
	res.set("storage.micro_hdd_ns_per_op", microDevice(cluster.HDD), "ns", microReps)
	res.set("storage.micro_ssd_ns_per_op", microDevice(cluster.SSD), "ns", microReps)
	res.set("qos.micro_fairshare_ns_per_pick", microFairShare(), "ns", microReps)
	res.set("obs.micro_ns_per_tick", microSamplerTick(), "ns", microReps)
}

// shardCase is one simulation the shard sweep times at 1 and 2 shards.
type shardCase struct {
	name string
	reps int
	run  func(shards int) any // returns the simulated results to compare
}

// probeShards times four cases on the serial kernel and on two shards;
// results must be identical and sim.shard2_speedup is serial ÷ sharded
// wall time (below 1 means the sharded kernel is slower).
func probeShards(seed uint64, size sizing, res *result) error {
	f2, err := setupFig2(seed, size)
	if err != nil {
		return err
	}
	hdd := f2.(*fig2).specs[0]
	qm, err := setupQoSMix(seed, size)
	if err != nil {
		return err
	}
	em := qm.(*qosMix).specs[2] // elephant-mice
	fl, err := setupFleet(seed, size)
	if err != nil {
		return err
	}
	fspec := fl.(*fleet).spec
	pile := pileupSpec()
	coRun := func(cfg cluster.Config, apps []core.AppSpec) func(int) any {
		return func(k int) any {
			r := core.PrepareSharded(cfg, apps, k).Run()
			return fmt.Sprint(r.Apps, r.Diag)
		}
	}
	cases := []shardCase{
		{"fig2", 3, coRun(hdd.Cfg, hdd.AppsAt(0))},
		{"qos", 1, func(k int) any {
			sw := core.Runner{Parallelism: 1, Shards: k}.RunMitigationSweep(em, core.StandardSchemes())
			return fmt.Sprint(sw.Pareto())
		}},
		{"fleet", 1, coRun(fspec.Cfg, fspec.AppsAt(0))},
		{"pileup", 3, coRun(pile.Cfg, pile.Apps)},
	}
	logSum := 0.0
	shards := []int{1, min(2, runtime.NumCPU())}
	for _, c := range cases {
		var walls [2][]float64
		var outs [2]any
		for rep := 0; rep < c.reps; rep++ {
			for i, k := range shards {
				t0 := time.Now()
				outs[i] = c.run(k)
				walls[i] = append(walls[i], time.Since(t0).Seconds())
			}
		}
		countSame(res, outs[0] == outs[1], "shard sweep "+c.name)
		sp := stats.Median(walls[0]) / stats.Median(walls[1])
		logSum += math.Log(sp)
		res.set("sim.shard2_speedup."+c.name, sp, "ratio", c.reps)
	}
	res.set("sim.shard2_speedup", math.Exp(logSum/float64(len(cases))), "ratio", len(cases))
	return nil
}

// pileupSpec is the 12-server, four-writer pile-up of the repository's
// BenchmarkShardedScenario, as one co-run.
func pileupSpec() core.DeltaSpec {
	cfg := cluster.Default()
	wl := iowl.Spec{BlockBytes: 16 << 20, TransferSize: 256 << 10}
	var apps []core.AppSpec
	for i := 0; i < 4; i++ {
		apps = append(apps, core.AppSpec{Name: core.AppName(i), Procs: 32, FirstNode: i * 2, ProcsPerNode: 16, Workload: wl})
	}
	return core.DeltaSpec{Cfg: cfg, Apps: apps}
}
