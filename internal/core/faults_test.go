package core

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testRetry is a fast-timescale policy so deadlines actually fire within
// tiny-platform runs.
func testRetry() fault.RetryPolicy {
	return fault.RetryPolicy{
		Deadline:   50 * sim.Millisecond,
		Backoff:    10 * sim.Millisecond,
		BackoffMax: 80 * sim.Millisecond,
		MaxRetries: 40,
		Budget:     -1, // unlimited
		Resume:     20 * sim.Millisecond,
	}
}

func faultCfg(events ...fault.Event) cluster.Config {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	cfg.Faults = &fault.Plan{Events: events, Retry: testRetry()}
	return cfg
}

// TestCrashRestartLiveness is the liveness contract: an application whose
// server crashes mid-burst stalls, retries, and completes after the
// restart — the simulation terminates and the work all lands.
func TestCrashRestartLiveness(t *testing.T) {
	cfg := faultCfg(
		fault.Event{At: 10 * sim.Millisecond, Kind: fault.ServerCrash, Server: 0},
		fault.Event{At: 150 * sim.Millisecond, Kind: fault.ServerRestart, Server: 0},
	)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	res := Prepare(cfg, apps).Run() // collect panics on deadlock
	av := res.Diag.Avail
	if av.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", av.Crashes)
	}
	if av.Downtime < 100*sim.Millisecond {
		t.Fatalf("downtime = %v, want >= 100ms", av.Downtime)
	}
	if av.RPCTimeouts == 0 || av.Retries == 0 {
		t.Fatalf("timeouts = %d retries = %d, want both > 0", av.RPCTimeouts, av.Retries)
	}
	for _, a := range res.Apps {
		if a.End < 150*sim.Millisecond {
			t.Fatalf("app %s finished at %v, before the restart", a.Name, a.End)
		}
	}
}

// TestFaultComparisonIF: a mid-burst crash must cost elapsed time against
// the healthy baseline, and the goodput ratio must drop below 1 (discarded
// bytes were offered but not stored).
func TestFaultComparisonIF(t *testing.T) {
	cfg := faultCfg(
		fault.Event{At: 10 * sim.Millisecond, Kind: fault.ServerCrash, Server: 1},
		fault.Event{At: 200 * sim.Millisecond, Kind: fault.ServerRestart, Server: 1},
	)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	fc := RunFaultComparison(cfg, apps)
	for i := range fc.Faulted.Apps {
		if ifv := fc.IF(i); ifv <= 1.0 {
			t.Fatalf("app %d IF under faults = %.3f, want > 1", i, ifv)
		}
	}
	if fc.Faulted.Diag.Avail.DiscardedBytes > 0 && fc.GoodputRatio() >= 1 {
		t.Fatalf("goodput ratio = %.3f with %d discarded bytes, want < 1",
			fc.GoodputRatio(), fc.Faulted.Diag.Avail.DiscardedBytes)
	}
	if fc.Healthy.Diag.Avail.Crashes != 0 || fc.Healthy.Diag.Avail.Retries != 0 {
		t.Fatalf("healthy arm saw faults: %+v", fc.Healthy.Diag.Avail)
	}
}

// TestDegradedDeviceSlowsRun: a degraded device must stretch its victim's
// elapsed time while leaving an app on a healthy server comparatively
// unharmed. The apps are pinned to disjoint servers so the degraded device
// sits squarely on the victim's critical path (on a shared-stripe platform
// an incast RTO can hide a modest degrade).
func TestDegradedDeviceSlowsRun(t *testing.T) {
	cfg := faultCfg(
		fault.Event{At: 2 * sim.Millisecond, Kind: fault.DeviceDegrade, Server: 0, Factor: 8},
		fault.Event{At: 2 * sim.Second, Kind: fault.DeviceRestore, Server: 0},
	)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	apps[0].TargetServers = []int{0} // victim
	apps[1].TargetServers = []int{1} // bystander
	fc := RunFaultComparison(cfg, apps)
	if fc.IF(0) <= 1.05 {
		t.Fatalf("victim IF = %.3f, want > 1.05 under a factor-8 degrade", fc.IF(0))
	}
	if fc.IF(1) > fc.IF(0) {
		t.Fatalf("bystander IF %.3f exceeds victim IF %.3f", fc.IF(1), fc.IF(0))
	}
}

// TestLinkFlapRecovers: an admin-down link drops traffic; senders back off
// through RTO, the retry layer rides it out, and the run completes after
// the link returns.
func TestLinkFlapRecovers(t *testing.T) {
	cfg := faultCfg(
		fault.Event{At: 10 * sim.Millisecond, Kind: fault.LinkDown, Server: 0},
		fault.Event{At: 250 * sim.Millisecond, Kind: fault.LinkUp, Server: 0},
	)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	res := Prepare(cfg, apps).Run()
	if res.Diag.Avail.LinkDrops == 0 {
		t.Fatal("no link drops recorded across a 240ms outage")
	}
	for _, a := range res.Apps {
		if a.End < 250*sim.Millisecond {
			t.Fatalf("app %s finished at %v, before the link came back", a.Name, a.End)
		}
	}
}

// TestFaultShardConformance: a faulted run must reproduce the serial
// oracle bit-for-bit at every shard count — the determinism contract of
// the injection design (events scheduled at setup time on the owning
// shard).
func TestFaultShardConformance(t *testing.T) {
	cfg := faultCfg(
		fault.Event{At: 10 * sim.Millisecond, Kind: fault.ServerCrash, Server: 1},
		fault.Event{At: 40 * sim.Millisecond, Kind: fault.LossBurst, Server: 2, Duration: 30 * sim.Millisecond},
		fault.Event{At: 160 * sim.Millisecond, Kind: fault.ServerRestart, Server: 1},
		fault.Event{At: 60 * sim.Millisecond, Kind: fault.DeviceDegrade, Server: 3, Factor: 4},
		fault.Event{At: 220 * sim.Millisecond, Kind: fault.DeviceRestore, Server: 3},
	)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	oracle := PrepareSharded(cfg, apps, 1).Run()
	for _, shards := range []int{2, 4} {
		got := PrepareSharded(cfg, apps, shards).Run()
		if !reflect.DeepEqual(oracle, got) {
			t.Fatalf("shards=%d diverged from serial oracle:\nserial:  %+v\nsharded: %+v",
				shards, oracle, got)
		}
	}
}

// TestNoFaultNilPlanIdentical: a nil fault plan must leave the platform
// bit-identical to one built before the fault subsystem existed — the
// golden-safety invariant, checked directly here (the figure goldens check
// it at scale).
func TestNoFaultNilPlanIdentical(t *testing.T) {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	base := Prepare(cfg, apps).Run()
	again := Prepare(cfg, apps).Run()
	if !reflect.DeepEqual(base, again) {
		t.Fatal("fault-free runs are not reproducible")
	}
	if base.Diag.Avail.Crashes != 0 || base.Diag.Avail.Retries != 0 ||
		base.Diag.Avail.DiscardedBytes != 0 || base.Diag.Avail.LinkDrops != 0 {
		t.Fatalf("fault counters nonzero on a fault-free run: %+v", base.Diag.Avail)
	}
}

// TestStallAndResume pins the outcome of stall-and-resume: a server crash
// outlasts a small MaxRetries, so requests of blocking (QD 1) and
// pipelined (QD 4) apps, writing and reading, give up, stall for Resume and
// are issued again until the server is back. Every app must finish after
// the restart, and the whole result must equal stallResumeWant, the value
// this run produced before stall-and-resume moved from core into the pfs
// client.
func TestStallAndResume(t *testing.T) {
	const restart = 400 * sim.Millisecond
	cfg := faultCfg(
		fault.Event{At: 10 * sim.Millisecond, Kind: fault.ServerCrash, Server: 0},
		fault.Event{At: restart, Kind: fault.ServerRestart, Server: 0},
	)
	cfg.Faults.Retry = fault.RetryPolicy{
		Deadline: 50 * sim.Millisecond, Backoff: 10 * sim.Millisecond,
		BackoffMax: 20 * sim.Millisecond, MaxRetries: 1, Budget: -1,
		Resume: 30 * sim.Millisecond,
	}
	var apps []AppSpec
	for i, qd := range []int{1, 1, 4, 4} {
		wl := workload.Spec{Pattern: workload.Strided, BlockBytes: 2 << 20,
			TransferSize: 256 << 10, QD: qd, Read: i%2 == 1}
		apps = append(apps, AppSpec{Name: AppName(i), Procs: 4, FirstNode: i,
			ProcsPerNode: 4, Workload: wl})
	}
	res := Prepare(cfg, apps).Run()
	if res.Diag.Avail.Failures == 0 {
		t.Fatalf("no request ran out of retries: %+v", res.Diag.Avail)
	}
	for _, a := range res.Apps {
		if a.End < restart {
			t.Errorf("app %s finished at %v, before the restart", a.Name, a.End)
		}
	}
	if !reflect.DeepEqual(res, stallResumeWant) {
		t.Fatalf("stall-and-resume result changed:\ngot  %#v\nwant %#v", res, stallResumeWant)
	}
}

var stallResumeWant = RunResult{
	Apps: []AppResult{
		{Name: "A", End: 439615064, Elapsed: 439615064, Bytes: 8388608, Throughput: 1.9081711904212635e+07},
		{Name: "B", End: 439453742, Elapsed: 439453742, Bytes: 8388608, Throughput: 1.9088716736880124e+07},
		{Name: "C", End: 432992782, Elapsed: 432992782, Bytes: 8388608, Throughput: 1.9373551589596704e+07},
		{Name: "D", End: 432831460, Elapsed: 432831460, Bytes: 8388608, Throughput: 1.9380772368071396e+07},
	},
	Diag: Diag{
		DeviceBytes: 55836672,
		Events:      9370,
		Avail: AvailDiag{
			Crashes: 1, Downtime: 390000000, DiscardedBytes: 7351296,
			RPCTimeouts: 216, Retries: 108, Failures: 108,
			GoodputBytes: 54788096, OfferedBytes: 63187968,
		},
	},
}
