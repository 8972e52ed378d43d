package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestObservedInvariants holds every builtin's smoke δ=0 co-run, observed
// on HDD and SSD, to invariants that hold by construction: each app's span
// stages add up to its span total, its spans carry exactly its bytes (no
// span is dropped at DefaultConfig's SpanCap), and, without a fault plan,
// the devices store exactly the apps' bytes. A crash makes clients write
// some bytes again, so the fault builtins are exempt from the device check.
// No smoke co-run queues for a flow slot at the default 16 per server, so
// each runs once more with one slot, which makes the queue stage count.
func TestObservedInvariants(t *testing.T) {
	var queued int
	for _, s := range Builtin() {
		s := s.Smoke()
		for _, backend := range []cluster.BackendKind{cluster.HDD, cluster.SSD} {
			_, spec, err := s.Build(backend)
			if err != nil {
				t.Fatal(err)
			}
			for _, slots := range []int{0, 1} {
				cfg := spec.Cfg
				cfg.Srv.QoS.FlowSlots = slots
				x := core.Prepare(cfg, spec.AppsAt(0))
				x.Observe(obs.DefaultConfig())
				res := x.Run()
				at := fmt.Sprintf("%s@%s, %d flow slots", s.Name, backend, slots)
				tl := res.Timeline
				if len(tl.Spans) != len(res.Apps) || tl.SpansDropped != 0 {
					t.Fatalf("%s: %d span totals for %d apps, %d dropped", at, len(tl.Spans), len(res.Apps), tl.SpansDropped)
				}
				var bytes int64
				for i, a := range res.Apps {
					st := tl.Spans[i]
					if st.SumNet+st.SumQueue+st.SumService != st.SumTotal {
						t.Errorf("%s: app %s: net %v + queue %v + service %v != total %v",
							at, a.Name, st.SumNet, st.SumQueue, st.SumService, st.SumTotal)
					}
					if st.Bytes != a.Bytes {
						t.Errorf("%s: app %s: spans carry %d bytes, the app moved %d", at, a.Name, st.Bytes, a.Bytes)
					}
					if st.SumQueue > 0 {
						queued++
					}
					bytes += a.Bytes
				}
				if s.Faults == nil && res.Diag.DeviceBytes != bytes {
					t.Errorf("%s: devices stored %d bytes, the apps moved %d", at, res.Diag.DeviceBytes, bytes)
				}
			}
		}
	}
	if queued == 0 {
		t.Fatal("no app queued for a flow slot in any run; the queue stage went unchecked")
	}
}

// TestRecordObservePassive pins that recording and observing are passive,
// to the run and to each other: one co-run both recorded and observed
// keeps record for record the records of a recorded-only run and the span
// totals and series of an observed-only run, and every run — plain,
// recorded, observed or both — finishes its apps at the same instants.
// The observed runs' Diag differs from the others' only by the probe
// ticks in Events: Samples per server and one client sampler (3,000 on
// the smoke aggressor-victim on HDD).
func TestRecordObservePassive(t *testing.T) {
	ocfg := obs.DefaultConfig()
	for _, name := range []string{"aggressor-victim", "periodic-checkpoint-4", "bursty-poisson-mix", "server-crash-checkpoint"} {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		_, spec, err := s.Smoke().Build(cluster.HDD)
		if err != nil {
			t.Fatal(err)
		}
		apps := spec.AppsAt(0)
		plain := core.Prepare(spec.Cfg, apps).Run()
		recorded, recRes := trace.RecordRun(spec.Cfg, apps)
		ox := core.Prepare(spec.Cfg, apps)
		ox.Observe(ocfg)
		observed := ox.Run()
		x := core.Prepare(spec.Cfg, apps)
		x.Platform.FS.Record(0)
		x.Observe(ocfg)
		both := x.Run()

		if len(recorded.Records) == 0 || !reflect.DeepEqual(x.Platform.FS.Records(), recorded.Records) {
			t.Errorf("%s: an observed recording kept %d records, a recorded-only run %d, or they differ",
				name, len(x.Platform.FS.Records()), len(recorded.Records))
		}
		if !reflect.DeepEqual(both.Timeline, observed.Timeline) {
			t.Errorf("%s: recording moved the timeline", name)
		}
		for _, r := range []core.RunResult{recRes, observed, both} {
			if !reflect.DeepEqual(r.Apps, plain.Apps) {
				t.Errorf("%s: apps %+v, a plain run's %+v", name, r.Apps, plain.Apps)
			}
		}
		if recRes.Diag != plain.Diag {
			t.Errorf("%s: recording moved Diag: %+v, plain %+v", name, recRes.Diag, plain.Diag)
		}
		ticked := plain.Diag
		ticked.Events += uint64(ocfg.Samples * (spec.Cfg.Servers + 1))
		if observed.Diag != ticked || both.Diag != ticked {
			t.Errorf("%s: observed Diag %+v, both %+v, want the plain run's plus the probe ticks: %+v",
				name, observed.Diag, both.Diag, ticked)
		}
		if name == "aggressor-victim" && ticked.Events-plain.Diag.Events != 3000 {
			t.Errorf("aggressor-victim: %d probe ticks, want 3000", ticked.Events-plain.Diag.Events)
		}
	}
}
