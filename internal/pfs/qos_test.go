package pfs

// Integration tests of the QoS subsystem at the server level: schedulers
// are configured through ServerParams.QoS at construction (the proper
// Params knob, like FlowBufs serialization in policy_test.go) and observed
// through completion times, telemetry and flow-slot accounting.

import (
	"testing"

	"repro/internal/qos"
	"repro/internal/sim"
)

// qosRig builds one slow-disk server under the given QoS configuration
// with one bulk application (app 0: two clients streaming eight 1 MiB
// blocking writes each) and one latency-bound application (app 1: one
// client, sixteen sequential 64 KiB writes into its own file), everything
// starting at t=0. A 1 ms sampler records the bulk application's largest
// observed in-flight chunk count while both applications have demand —
// the pipeline depth a DepthAdvisor clamps — and the smallest positive
// budget AppDepth reported for it (1<<30 when no advisor ever engaged).
// Returns that high-water mark, the budget low-water mark, and the rig.
func qosRig(t *testing.T, qp qos.Params) (int64, int, *rig) {
	t.Helper()
	sp := DefaultServerParams()
	sp.QoS = qp
	r := buildRigParams(1, 3, "hdd", SyncOn, sp)
	fA := r.fs.CreateFile("bulk", nil, 64<<10)
	fB := r.fs.CreateFile("small", nil, 64<<10)
	for i := 0; i < 2; i++ {
		cl := r.fs.NewClient(r.cliHost[i], 0)
		base := int64(i) << 23
		r.e.Spawn("bulk", func(p *sim.Proc) {
			for k := int64(0); k < 8; k++ {
				cl.Write(p, fA, base+k<<20, 1<<20)
			}
		})
	}
	clB := r.fs.NewClient(r.cliHost[2], 1)
	r.e.Spawn("small", func(p *sim.Proc) {
		for i := int64(0); i < 16; i++ {
			clB.Write(p, fB, i<<16, 64<<10)
		}
	})
	srv := r.fs.Servers[0]
	var peak int64
	minBudget := 1 << 30
	var sample func()
	sample = func() {
		if srv.Tel.DemandApps() >= 2 {
			if fl := srv.Tel.App(0).InFlight; fl > peak {
				peak = fl
			}
			if d := srv.AppDepth(0); d > 0 && d < minBudget {
				minBudget = d
			}
		}
		if srv.Tel.Queued()+srv.Tel.Active() > 0 {
			r.e.Schedule(sim.Millisecond, sample)
		}
	}
	r.e.Schedule(sim.Millisecond, sample)
	r.e.Run()
	if srv.FreeFlows() != srv.P.FlowBufs {
		t.Fatalf("flow slots leaked: %d free of %d", srv.FreeFlows(), srv.P.FlowBufs)
	}
	if srv.QueuedRequests() != 0 {
		t.Fatalf("request backlog not drained: %d", srv.QueuedRequests())
	}
	return peak, minBudget, r
}

// TestQoSFairShareClampsAggressorPipeline: under contention the fairshare
// budget must hold the bulk application to InflightChunks chunks in
// flight, where the FIFO baseline lets it pipeline far deeper — the
// device-backlog mechanism behind the aggressor-victim scenario's
// mitigation numbers.
func TestQoSFairShareClampsAggressorPipeline(t *testing.T) {
	off, _, _ := qosRig(t, qos.Params{})
	if off <= 4 {
		t.Fatalf("baseline rig never pipelines deeply (peak %d); the clamp test is vacuous", off)
	}
	fair, _, _ := qosRig(t, qos.Params{Kind: qos.FairShare})
	if fair > 4 {
		t.Fatalf("fairshare budget violated: bulk reached %d in-flight chunks, budget 4", fair)
	}
}

// soloWriter runs the shared single-application workload — one client
// streaming eight blocking 1 MiB writes — on a one-server rig with the
// given backend and QoS configuration, and returns its completion time.
func soloWriter(devKind string, qp qos.Params) sim.Time {
	sp := DefaultServerParams()
	sp.QoS = qp
	r := buildRigParams(1, 1, devKind, SyncOn, sp)
	f := r.fs.CreateFile("f", nil, 64<<10)
	cl := r.fs.NewClient(r.cliHost[0], 0)
	var done sim.Time
	r.e.Spawn("w", func(p *sim.Proc) {
		for i := int64(0); i < 8; i++ {
			cl.Write(p, f, i<<20, 1<<20)
		}
		done = p.Now()
	})
	r.e.Run()
	return done
}

// TestQoSFairShareAloneUnclamped: with a single application the budget
// clamp must not engage — the alone baseline is bit-identical to FIFO.
func TestQoSFairShareAloneUnclamped(t *testing.T) {
	off := soloWriter("hdd", qos.Params{})
	if fair := soloWriter("hdd", qos.Params{Kind: qos.FairShare}); fair != off {
		t.Fatalf("solo run differs under fairshare: %v vs %v", fair, off)
	}
}

// TestQoSTokenBucketCapsRate: a single writer is held to the configured
// per-application rate (modulo one burst), even though the backend (RAM)
// could absorb it instantly.
func TestQoSTokenBucketCapsRate(t *testing.T) {
	const rate, burst = 16e6, 1 << 20
	done := soloWriter("ram", qos.Params{Kind: qos.TokenBucket, RateBytesPerSec: rate, BurstBytes: burst})
	// 8 MiB at 16 MB/s with a 1 MiB head start: at least ~0.45 s.
	min := sim.Seconds((8<<20 - burst) / rate)
	if done < min {
		t.Fatalf("rate cap not enforced: finished at %v, floor %v", done, min)
	}
	// And the throttle must actually have idled the slot at least once: the
	// un-throttled run is far faster.
	if doneOff := soloWriter("ram", qos.Params{}); doneOff*4 > done {
		t.Fatalf("throttled run (%v) not clearly slower than open run (%v)", done, doneOff)
	}
}

// TestQoSControllerCompletesAndThrottles: the feedback controller must cut
// the aggressor's chunk budget below its ceiling at some point of the
// contended run, the run must still finish, and the controller's tick must
// disarm at idle so the event queue drains (a perpetual tick would keep
// Engine.Run from ever returning).
func TestQoSControllerCompletesAndThrottles(t *testing.T) {
	_, offBudget, _ := qosRig(t, qos.Params{})
	if offBudget != 1<<30 {
		t.Fatalf("FIFO baseline reports a budget (%d)", offBudget)
	}
	ceiling := qos.Defaults(qos.Controller).InflightChunks
	_, minBudget, r := qosRig(t, qos.Params{Kind: qos.Controller, Tick: sim.Millisecond})
	if minBudget >= ceiling {
		t.Fatalf("controller never cut the aggressor's budget below the %d ceiling (min %d)",
			ceiling, minBudget)
	}
	if r.e.Pending() != 0 {
		t.Fatalf("%d events still pending after Run (tick never disarmed?)", r.e.Pending())
	}
}

// TestQoSTelemetryCounters: the probe layer's per-application byte
// accounting must balance the workload exactly and drain to idle.
func TestQoSTelemetryCounters(t *testing.T) {
	_, _, r := qosRig(t, qos.Params{Kind: qos.FairShare})
	tel := r.fs.Servers[0].Tel
	if tel.Queued() != 0 || tel.Active() != 0 || tel.DemandApps() != 0 {
		t.Fatalf("telemetry not drained: queued %d active %d", tel.Queued(), tel.Active())
	}
	bulk, small := tel.App(0), tel.App(1)
	if bulk.BytesDone != 16<<20 || small.BytesDone != 16*(64<<10) {
		t.Fatalf("BytesDone wrong: bulk %d small %d", bulk.BytesDone, small.BytesDone)
	}
	if bulk.BytesIn != bulk.BytesDone || small.InFlight != 0 || bulk.InFlight != 0 {
		t.Fatalf("pipeline accounting wrong: %+v %+v", bulk, small)
	}
	if bulk.Requests != 16 || small.Requests != 16 {
		t.Fatalf("request counts wrong: bulk %d small %d", bulk.Requests, small.Requests)
	}
	if bulk.Granted != bulk.Requests || small.Granted != small.Requests {
		t.Fatalf("grants do not match requests: %+v %+v", bulk, small)
	}
}

// TestQoSFlowSlotsOverride: a QoS FlowSlots knob overrides the server's
// FlowBufs at construction — for active schedulers and for the Off
// baseline alike, so both arms of a comparison can be serialized the same
// way.
func TestQoSFlowSlotsOverride(t *testing.T) {
	for _, kind := range []qos.Kind{qos.FairShare, qos.Off} {
		sp := DefaultServerParams()
		sp.QoS = qos.Params{Kind: kind, FlowSlots: 3}
		r := buildRigParams(1, 1, "ram", SyncOn, sp)
		if got := r.fs.Servers[0].P.FlowBufs; got != 3 {
			t.Fatalf("%v: FlowBufs = %d, want 3", kind, got)
		}
		if got := r.fs.Servers[0].FreeFlows(); got != 3 {
			t.Fatalf("%v: FreeFlows = %d, want 3", kind, got)
		}
	}
}

// TestQoSInvalidParamsPanic: structurally broken QoS params fail loudly at
// server construction.
func TestQoSInvalidParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid QoS params")
		}
	}()
	sp := DefaultServerParams()
	sp.QoS = qos.Params{Kind: qos.FairShare, QuantumBytes: -1}
	buildRigParams(1, 1, "ram", SyncOn, sp)
}
