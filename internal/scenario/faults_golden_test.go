// Fault goldens pin the availability story end to end: for every built-in
// fault scenario, on both backends, the healthy-vs-faulted comparison —
// per-app elapsed times and IF-under-faults, plus the full availability
// ledger (downtime, discarded bytes, link drops, RPC timeouts, retries,
// failures, goodput vs offered). A kernel change that moves any of it
// fails loudly here; regenerate with
//
//	go test ./internal/scenario -run TestGoldenFaults -update-golden
//
// after convincing yourself the movement is intended.
package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

const faultsGoldenFile = "testdata/golden_faults.txt"

// faultBuiltins returns the built-in scenarios that carry a faults block,
// in registry order.
func faultBuiltins() []Spec {
	var out []Spec
	for _, s := range Builtin() {
		if s.Faults != nil {
			out = append(out, s)
		}
	}
	return out
}

// faultGoldenBlock renders one comparison in the canonical form: integer
// nanoseconds for times, exact integers for counters, %.17g for ratios.
func faultGoldenBlock(s Spec, backend cluster.BackendKind, fc core.FaultComparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s@%s\n", s.Name, backend.String())
	names := AppNames(s)
	for i := range fc.Faulted.Apps {
		fmt.Fprintf(&b, "  app %s healthy_elapsed=%d faulted_elapsed=%d if=%.17g\n",
			names[i], int64(fc.Healthy.Apps[i].Elapsed), int64(fc.Faulted.Apps[i].Elapsed), fc.IF(i))
	}
	av := fc.Faulted.Diag.Avail
	fmt.Fprintf(&b, "  avail crashes=%d downtime=%d discarded_bytes=%d link_drops=%d\n",
		av.Crashes, int64(av.Downtime), av.DiscardedBytes, av.LinkDrops)
	fmt.Fprintf(&b, "  client timeouts=%d retries=%d failures=%d goodput=%d offered=%d goodput_ratio=%.17g\n",
		av.RPCTimeouts, av.Retries, av.Failures, av.GoodputBytes, av.OfferedBytes, fc.GoodputRatio())
	return b.String()
}

// TestGoldenFaults pins the fault builtins' healthy-vs-faulted comparison
// (smoke scale) on both backends, and asserts the availability story is
// actually told: the faults must cost somebody elapsed time, and the
// injected outages must leave nonzero fingerprints in the ledger.
func TestGoldenFaults(t *testing.T) {
	specs := faultBuiltins()
	if len(specs) == 0 {
		t.Fatal("no built-in fault scenarios in the registry")
	}
	var blocks []string
	for _, s := range specs {
		sm := s.Smoke()
		for _, backend := range []cluster.BackendKind{cluster.HDD, cluster.SSD} {
			fc, err := CompareFaults(sm, backend, core.Runner{})
			if err != nil {
				t.Fatalf("%s@%s: %v", s.Name, backend.String(), err)
			}
			key := fmt.Sprintf("%s@%s", s.Name, backend.String())
			maxIF := 0.0
			for i := range fc.Faulted.Apps {
				if v := fc.IF(i); v > maxIF {
					maxIF = v
				}
			}
			if maxIF <= 1.01 {
				t.Errorf("%s: no app pays for the faults (max IF %.4f)", key, maxIF)
			}
			av := fc.Faulted.Diag.Avail
			if av.Crashes == 0 && av.Downtime == 0 && fc.Faulted.Diag.Avail.RPCTimeouts == 0 &&
				!degradePlanned(s) {
				t.Errorf("%s: availability ledger is empty under a fault plan: %+v", key, av)
			}
			if h := fc.Healthy.Diag.Avail; h.Crashes != 0 || h.Retries != 0 || h.DiscardedBytes != 0 {
				t.Errorf("%s: healthy twin saw faults: %+v", key, h)
			}
			blocks = append(blocks, faultGoldenBlock(s, backend, fc))
		}
	}
	got := "# Fault-injection goldens: healthy-vs-faulted comparison of every built-in\n" +
		"# fault scenario at smoke scale. Times are integer nanoseconds.\n" +
		"# Regenerate: go test ./internal/scenario -run TestGoldenFaults -update-golden\n" +
		strings.Join(blocks, "")
	if updateGolden() {
		if err := os.MkdirAll(filepath.Dir(faultsGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(faultsGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", faultsGoldenFile)
		return
	}
	want, err := os.ReadFile(faultsGoldenFile)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update-golden): %v", faultsGoldenFile, err)
	}
	if string(want) != got {
		t.Fatalf("fault goldens moved (regenerate with -update-golden if intended)\n--- want ---\n%s--- got ---\n%s",
			want, got)
	}
}

// degradePlanned reports whether the scenario's plan is degrade-only (a
// degrade can slow the run without tripping a single deadline, so the
// ledger check above does not demand timeouts of it).
func degradePlanned(s Spec) bool {
	for _, ev := range s.Faults.Events {
		switch ev.Kind {
		case "server-crash", "link-down", "loss-burst":
			return false
		}
	}
	return true
}

// TestFaultScenarioShardConformance re-runs every fault builtin's δ=0
// co-run, healthy and faulted, on shard counts {2, 4} and demands results
// bit-identical to the serial run — the injection-is-deterministic-under-
// sharding contract at the scenario level, on both backends.
func TestFaultScenarioShardConformance(t *testing.T) {
	compare := func(cfg cluster.Config, apps []core.AppSpec, shards int) core.FaultComparison {
		healthy := cfg
		healthy.Faults = nil
		return core.FaultComparison{
			Healthy: core.PrepareSharded(healthy, apps, shards).Run(),
			Faulted: core.PrepareSharded(cfg, apps, shards).Run(),
		}
	}
	for _, s := range faultBuiltins() {
		sm := s.Smoke()
		for _, backend := range []cluster.BackendKind{cluster.HDD, cluster.SSD} {
			cfg, spec, err := sm.Build(backend)
			if err != nil {
				t.Fatal(err)
			}
			apps := spec.AppsAt(0)
			oracle := compare(cfg, apps, 1)
			for _, shards := range []int{2, 4} {
				got := compare(cfg, apps, shards)
				if faultGoldenBlock(s, backend, got) != faultGoldenBlock(s, backend, oracle) ||
					got.Faulted.Diag != oracle.Faulted.Diag {
					t.Errorf("%s@%s shards=%d diverged from the serial oracle",
						s.Name, backend.String(), shards)
				}
			}
		}
	}
}

// TestFaultBuiltinLiveness: at full (non-smoke) scale the crash builtin
// still terminates with every byte landed — the retry layer's liveness
// contract at realistic parameters. sim.Time keeps this cheap: only event
// count matters, not simulated seconds.
func TestFaultBuiltinLiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale fault run")
	}
	s, err := Lookup("server-crash-checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	fc, err := CompareFaults(s, cluster.HDD, core.Runner{})
	if err != nil {
		t.Fatal(err)
	}
	av := fc.Faulted.Diag.Avail
	if av.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", av.Crashes)
	}
	restart := sim.Seconds(2.2)
	for i, a := range fc.Faulted.Apps {
		if a.End < restart {
			t.Fatalf("app %d finished at %v, before the restart at %v", i, a.End, restart)
		}
	}
	if av.Failures > 0 && av.Retries == 0 {
		t.Fatalf("failures without retries: %+v", av)
	}
}

// TestCompareFaultsIsTheDeltaZeroPoint: the faulted twin is the δ=0 co-run
// that Run, Record and RunTimeline simulate, start offsets normalized the
// same way — also when every app starts late, which no fault builtin does.
func TestCompareFaultsIsTheDeltaZeroPoint(t *testing.T) {
	s, err := Lookup("degraded-ost-victim")
	if err != nil {
		t.Fatal(err)
	}
	s = s.Smoke()
	s.Apps[0].StartS, s.Apps[1].StartS = 0.01, 0.02
	fc, err := CompareFaults(s, cluster.HDD, core.Runner{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, cluster.HDD, core.Runner{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Graph.At(0)
	for i, a := range fc.Faulted.Apps {
		if a.Start != p.Start[i] || a.Elapsed != p.Elapsed[i] {
			t.Errorf("app %d: faulted twin starts %v, takes %v; the δ=0 point starts %v, takes %v",
				i, a.Start, a.Elapsed, p.Start[i], p.Elapsed[i])
		}
	}
}
