package core

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tinyConfig is a scaled-down platform for fast tests: 4 nodes x 4 cores,
// 4 servers.
func tinyConfig(backend cluster.BackendKind, mode pfs.SyncMode) cluster.Config {
	cfg := cluster.Default()
	cfg.ComputeNodes = 4
	cfg.CoresPerNode = 4
	cfg.Servers = 4
	cfg.Backend = backend
	cfg.Sync = mode
	return cfg
}

func tinyWorkload() workload.Spec {
	return workload.Spec{Pattern: workload.Contiguous, BlockBytes: 4 << 20}
}

func TestSingleAppRun(t *testing.T) {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	x := Prepare(cfg, []AppSpec{apps[0]})
	res := x.Run()
	if len(res.Apps) != 1 {
		t.Fatalf("apps = %d", len(res.Apps))
	}
	a := res.Apps[0]
	if a.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	if a.Bytes != 8*(4<<20) {
		t.Fatalf("bytes = %d", a.Bytes)
	}
	if res.Diag.DeviceBytes != a.Bytes {
		t.Fatalf("device bytes %d != app bytes %d", res.Diag.DeviceBytes, a.Bytes)
	}
	if a.Throughput <= 0 {
		t.Fatal("no throughput")
	}
}

func TestTwoAppsOverlapInterfere(t *testing.T) {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	// Large enough per-process volume that steady-state sharing (not the
	// initial slow-start collision) dominates the phase.
	wl := workload.Spec{Pattern: workload.Contiguous, BlockBytes: 32 << 20}
	apps := TwoAppSpecs(cfg, 8, 4, wl)
	spec := DeltaSpec{Cfg: cfg, Apps: apps, Deltas: []sim.Time{0}}
	g := RunDelta(spec)
	if g.Alone[0] <= 0 || g.Alone[1] <= 0 {
		t.Fatal("alone baselines missing")
	}
	p := g.At(0)
	if p == nil {
		t.Fatal("no δ=0 point")
	}
	// Simultaneous bursts must interfere: both apps slower than alone.
	for i := 0; i < 2; i++ {
		if p.IF[i] < 1.2 {
			t.Fatalf("app %d IF at δ=0 = %.2f, expected clear interference", i, p.IF[i])
		}
		if p.IF[i] > 3.0 {
			t.Fatalf("app %d IF at δ=0 = %.2f, implausibly high", i, p.IF[i])
		}
	}
}

func TestLargeDeltaNoInterference(t *testing.T) {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	// Large positive delay: A finishes long before B starts.
	spec := DeltaSpec{Cfg: cfg, Apps: apps, Deltas: []sim.Time{30 * sim.Second}}
	g := RunDelta(spec)
	p := g.Points[0]
	for i := 0; i < 2; i++ {
		if p.IF[i] > 1.05 {
			t.Fatalf("app %d IF = %.3f at non-overlapping δ, want ~1", i, p.IF[i])
		}
	}
}

func TestNegativeDeltaMirrors(t *testing.T) {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	spec := DeltaSpec{Cfg: cfg, Apps: apps, Deltas: []sim.Time{-20 * sim.Second}}
	g := RunDelta(spec)
	p := g.Points[0]
	// B ran first, alone: its IF must be ~1; A started 20s later, also
	// after B finished (tiny workload): ~1 too.
	if p.IF[1] > 1.05 || p.IF[0] > 1.05 {
		t.Fatalf("IFs = %v, want ~1", p.IF)
	}
}

func TestSplitServersRemoveInterference(t *testing.T) {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	wl := tinyWorkload()
	shared := TwoAppSpecs(cfg, 8, 4, wl)
	split := TwoAppSpecs(cfg, 8, 4, wl)
	split[0].TargetServers = []int{0, 1}
	split[1].TargetServers = []int{2, 3}
	gShared := RunDelta(DeltaSpec{Cfg: cfg, Apps: shared, Deltas: []sim.Time{0}})
	gSplit := RunDelta(DeltaSpec{Cfg: cfg, Apps: split, Deltas: []sim.Time{0}})
	if gSplit.PeakIF() > 1.15 {
		t.Fatalf("split-server IF = %.2f, want ~1 (no shared component but the switch)", gSplit.PeakIF())
	}
	if gShared.PeakIF() < 1.3 {
		t.Fatalf("shared-server IF = %.2f, want clear interference", gShared.PeakIF())
	}
}

func TestTableOneLocalInterference(t *testing.T) {
	cfg := cluster.Default()
	lp := DefaultLocalParams()
	rows := RunLocal(cfg, lp, []cluster.BackendKind{cluster.HDD, cluster.SSD, cluster.RAM}, 2<<30)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	type band struct{ aloneLo, aloneHi, slowLo, slowHi float64 }
	bands := map[cluster.BackendKind]band{
		cluster.HDD: {11, 17, 2.2, 2.8},    // paper: 13.4 s, 2.49x
		cluster.SSD: {1.8, 2.9, 1.75, 2.2}, // paper: 2.27 s, 1.96x
		cluster.RAM: {1.1, 1.7, 1.35, 1.8}, // paper: 1.32 s, 1.58x
	}
	for _, r := range rows {
		b := bands[r.Backend]
		sec := r.Alone.Seconds()
		if sec < b.aloneLo || sec > b.aloneHi {
			t.Errorf("%v alone = %.2fs, want in [%.1f, %.1f]", r.Backend, sec, b.aloneLo, b.aloneHi)
		}
		if r.Slowdown < b.slowLo || r.Slowdown > b.slowHi {
			t.Errorf("%v slowdown = %.2fx, want in [%.2f, %.2f]", r.Backend, r.Slowdown, b.slowLo, b.slowHi)
		}
	}
	// Relative ordering of Table I: HDD suffers most, RAM least.
	if !(rows[0].Slowdown > rows[1].Slowdown && rows[1].Slowdown > rows[2].Slowdown) {
		t.Errorf("slowdown ordering violated: %v", rows)
	}
}

func TestDeltasGridSorted(t *testing.T) {
	ds := Deltas(10, 40, 20)
	if len(ds) != 7 {
		t.Fatalf("len = %d", len(ds))
	}
	for i := 1; i < len(ds); i++ {
		if ds[i] < ds[i-1] {
			t.Fatalf("unsorted grid: %v", ds)
		}
	}
	if ds[3] != 0 {
		t.Fatalf("middle of grid should be 0: %v", ds)
	}
}

func TestUnfairnessMetric(t *testing.T) {
	g := &DeltaGraph{Alone: []sim.Time{10 * sim.Second, 10 * sim.Second}}
	// Symmetric graph: second app suffers same as first.
	g.Points = []DeltaPoint{
		{Delta: sim.Seconds(5), Elapsed: []sim.Time{12 * sim.Second, 12 * sim.Second}, IF: []float64{1.2, 1.2}},
		{Delta: sim.Seconds(-5), Elapsed: []sim.Time{12 * sim.Second, 12 * sim.Second}, IF: []float64{1.2, 1.2}},
	}
	if u := g.Unfairness(); u < 0.95 || u > 1.05 {
		t.Fatalf("symmetric unfairness = %v, want ~1", u)
	}
	// First-mover advantage: second app 1.5x slower.
	g.Points = []DeltaPoint{
		{Delta: sim.Seconds(5), Elapsed: []sim.Time{10 * sim.Second, 15 * sim.Second}, IF: []float64{1.0, 1.5}},
		{Delta: sim.Seconds(-5), Elapsed: []sim.Time{15 * sim.Second, 10 * sim.Second}, IF: []float64{1.5, 1.0}},
	}
	if u := g.Unfairness(); u < 1.4 {
		t.Fatalf("unfair graph metric = %v, want ~1.5", u)
	}
	// With a recorded start vector, roles come from actual starts, not the
	// δ sign: here δ>0 but the offset made app 0 start later, so the ratio
	// flips to T(app0)/T(app1).
	g.Points = []DeltaPoint{{
		Delta:   sim.Seconds(5),
		Start:   []sim.Time{8 * sim.Second, 0},
		Elapsed: []sim.Time{15 * sim.Second, 10 * sim.Second},
		IF:      []float64{1.5, 1.0},
	}}
	if u := g.Unfairness(); u < 1.4 {
		t.Fatalf("start-ordered unfairness = %v, want ~1.5 (app 1 was first)", u)
	}
	// Simultaneous starts carry no first-mover information.
	g.Points = []DeltaPoint{{
		Delta:   sim.Seconds(5),
		Start:   []sim.Time{0, 0},
		Elapsed: []sim.Time{15 * sim.Second, 10 * sim.Second},
		IF:      []float64{1.5, 1.5},
	}}
	if u := g.Unfairness(); u != 1 {
		t.Fatalf("simultaneous-start unfairness = %v, want neutral 1", u)
	}
	// A hand-built point with only IF populated takes the δ-sign fallback
	// instead of panicking on the absent start vector.
	g.Points = []DeltaPoint{{Delta: sim.Seconds(5), IF: []float64{1.0, 1.5}}}
	if u := g.Unfairness(); u != 1.5 {
		t.Fatalf("IF-only point unfairness = %v, want 1.5 via the fallback", u)
	}
}

// TestSingleBurstIsOneProgram: an app written as a single burst and the
// same burst written as a one-phase program run the same simulation, down
// to every counter of the RunResult.
func TestSingleBurstIsOneProgram(t *testing.T) {
	cfg := tinyConfig(cluster.HDD, pfs.SyncOn)
	read := tinyWorkload()
	read.Read = true
	for _, wl := range []workload.Spec{
		tinyWorkload(),
		{Pattern: workload.Strided, BlockBytes: 2 << 20, TransferSize: 256 << 10, QD: 4,
			ThinkTime: int64(sim.Millisecond)},
		read,
	} {
		single := TwoAppSpecs(cfg, 8, 4, wl)
		progs := TwoAppSpecs(cfg, 8, 4, workload.Spec{})
		for i := range progs {
			progs[i].Program = workload.Single(wl)
		}
		want := Prepare(cfg, single).Run()
		if got := Prepare(cfg, progs).Run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: one-phase program\n%+v\nsingle burst\n%+v", wl, got, want)
		}
	}
}

func TestAppSpecValidate(t *testing.T) {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	good := AppSpec{Name: "A", Procs: 4, FirstNode: 0, ProcsPerNode: 2, Workload: tinyWorkload()}
	if err := good.Validate(cfg); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bad := good
	bad.FirstNode = 3 // 4 procs at 2 ppn from node 3 -> node 4, beyond 4-node platform
	if err := bad.Validate(cfg); err == nil {
		t.Fatal("out-of-range spec accepted")
	}
	bad2 := good
	bad2.Procs = 0
	if err := bad2.Validate(cfg); err == nil {
		t.Fatal("zero procs accepted")
	}
}

func TestWindowTraceProbe(t *testing.T) {
	cfg := tinyConfig(cluster.HDD, pfs.SyncOn)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	x := Prepare(cfg, []AppSpec{apps[0], apps[1]})
	tr := x.AttachWindowTrace(0, 0, 0)
	res := x.Run()
	if tr.Len() == 0 {
		t.Fatal("probe recorded nothing")
	}
	if res.Apps[0].Elapsed <= 0 {
		t.Fatal("run broken")
	}
}

func TestStridedWorkloadRuns(t *testing.T) {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	wl := workload.Spec{Pattern: workload.Strided, BlockBytes: 2 << 20, TransferSize: 256 << 10, QD: 2}
	apps := TwoAppSpecs(cfg, 8, 4, wl)
	x := Prepare(cfg, []AppSpec{apps[0], apps[1]})
	res := x.Run()
	for _, a := range res.Apps {
		if a.Elapsed <= 0 {
			t.Fatalf("app %s did not run", a.Name)
		}
	}
	if res.Diag.DeviceBytes != 2*8*(2<<20) {
		t.Fatalf("device bytes = %d", res.Diag.DeviceBytes)
	}
}

func TestReadWorkloadRuns(t *testing.T) {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	wl := tinyWorkload()
	wl.Read = true
	apps := TwoAppSpecs(cfg, 4, 4, wl)
	x := Prepare(cfg, []AppSpec{apps[0]})
	res := x.Run()
	if res.Apps[0].Elapsed <= 0 {
		t.Fatal("read app did not run")
	}
}
