package scenario

// Golden guard for the queued and pipelined request path: four builtins
// run at smoke scale on HDD with a single flow slot per server, so request
// shares wait at the servers for a slot (their chunks unread in the
// sockets), and each at queue depth 1 and 4, so at QD 4 several shares of
// one connection wait at a server at once. Each run is observed with
// obs.DefaultConfig(); the golden pins every app's elapsed time and span
// stages, and the run's diagnostics with its availability ledger (the
// crash builtin discards the buffered chunks of the shares it kills and
// retries them). At the default 16 slots no builtin's smoke co-run waits
// for one.
//
// Regenerate (after an intentional model change only) with:
//
//	go test ./internal/scenario -run TestGoldenQueued -update-golden

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
)

const queuedGoldenFile = "testdata/golden_queued.txt"

// queuedBuiltins are the builtins the queued-path golden runs: a mixed
// read/write pair, an elephant against strided mice, a phased checkpoint
// program and the server-crash fault builtin.
var queuedBuiltins = []string{"checkpoint-vs-read", "elephant-mice", "periodic-checkpoint-4", "server-crash-checkpoint"}

// withQD returns s with every app's I/O at queue depth qd: its one burst,
// or each io phase of a phased app. s must own its apps and phases (a
// Smoke copy does).
func withQD(s Spec, qd int) Spec {
	for i := range s.Apps {
		a := &s.Apps[i]
		if len(a.Phases) == 0 {
			a.QD = qd
			continue
		}
		for j := range a.Phases {
			if a.Phases[j].Kind == "io" {
				a.Phases[j].QD = qd
			}
		}
	}
	return s
}

// queuedRun runs s's δ=0 co-run on HDD with one flow slot per server,
// observed with obs.DefaultConfig().
func queuedRun(t *testing.T, s Spec) core.RunResult {
	t.Helper()
	_, spec, err := s.Build(cluster.HDD)
	if err != nil {
		t.Fatal(err)
	}
	spec.Cfg.Srv.QoS.FlowSlots = 1
	x := core.Prepare(spec.Cfg, spec.AppsAt(0))
	x.Observe(obs.DefaultConfig())
	return x.Run()
}

// queuedGoldenBlock renders one run exactly: integer nanoseconds for
// times, exact integers for counters.
func queuedGoldenBlock(name string, qd int, res core.RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s@hdd qd=%d\n", name, qd)
	for i, a := range res.Apps {
		sp := res.Timeline.Spans[i]
		fmt.Fprintf(&b, "  app %s elapsed=%d spans=%d reads=%d bytes=%d net=%d queue=%d service=%d total=%d max=%d\n",
			a.Name, int64(a.Elapsed), sp.Count, sp.Reads, sp.Bytes,
			int64(sp.SumNet), int64(sp.SumQueue), int64(sp.SumService), int64(sp.SumTotal), int64(sp.MaxTotal))
	}
	d := res.Diag
	fmt.Fprintf(&b, "  diag port_drops=%d timeouts=%d retrans=%d seeks=%d device_bytes=%d cache_blocks=%d events=%d spans_dropped=%d\n",
		d.PortDrops, d.Timeouts, d.RetransSegs, d.DeviceSeeks, d.DeviceBytes, d.CacheBlocks, d.Events, res.Timeline.SpansDropped)
	av := d.Avail
	fmt.Fprintf(&b, "  avail crashes=%d downtime=%d discarded_bytes=%d link_drops=%d rpc_timeouts=%d retries=%d failures=%d goodput=%d offered=%d\n",
		av.Crashes, int64(av.Downtime), av.DiscardedBytes, av.LinkDrops,
		av.RPCTimeouts, av.Retries, av.Failures, av.GoodputBytes, av.OfferedBytes)
	return b.String()
}

// TestGoldenQueued pins the queued-path runs and checks that they queue:
// every app's shares must spend time waiting for the flow slot, and the
// crash builtin must discard buffered chunks and retry.
func TestGoldenQueued(t *testing.T) {
	var blocks []string
	for _, name := range queuedBuiltins {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, qd := range []int{1, 4} {
			res := queuedRun(t, withQD(s.Smoke(), qd))
			key := fmt.Sprintf("%s qd=%d", name, qd)
			for i, a := range res.Apps {
				if sp := res.Timeline.Spans[i]; sp.Count == 0 || sp.SumQueue == 0 {
					t.Errorf("%s: app %s never waited for a flow slot (%d spans)", key, a.Name, sp.Count)
				}
			}
			if av := res.Diag.Avail; s.Faults != nil && (av.Retries == 0 || av.DiscardedBytes == 0) {
				t.Errorf("%s: the crash discarded %d bytes and caused %d retries", key, av.DiscardedBytes, av.Retries)
			}
			blocks = append(blocks, queuedGoldenBlock(name, qd, res))
		}
	}
	got := "# Queued and pipelined request path: smoke builtins on HDD with one flow\n" +
		"# slot per server, every app at QD 1 and QD 4, observed with\n" +
		"# obs.DefaultConfig(). Times are integer nanoseconds.\n" +
		"# Regenerate: go test ./internal/scenario -run TestGoldenQueued -update-golden\n" +
		strings.Join(blocks, "")
	if updateGolden() {
		if err := os.WriteFile(queuedGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", queuedGoldenFile)
		return
	}
	want, err := os.ReadFile(queuedGoldenFile)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update-golden): %v", queuedGoldenFile, err)
	}
	if string(want) != got {
		t.Fatalf("queued-path golden moved (regenerate with -update-golden if intended):\n%s",
			firstDiff(string(want), got))
	}
}
