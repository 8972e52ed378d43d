package core

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestShardEquivalence is the metamorphic core of the sharded kernel's
// contract: the full RunResult of an experiment — completion windows,
// per-app elapsed times, transport and device diagnostics, event counts —
// must be byte-for-byte identical at every shard count, because the shard
// knob is only allowed to change wall-clock time. It sweeps both storage
// backends, contiguous and strided patterns, and queue-depth pipelining,
// comparing shards ∈ {1, 2, 3, 4, 1+Servers} against the serial oracle
// (shards=1). The scenario-level conformance suite in internal/scenario
// covers the builtin scenarios; this test covers the raw core API at
// scales and patterns the builtins don't reach.
func TestShardEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		scale   int
		backend cluster.BackendKind
		strided bool
		qd      int
	}{
		{"hdd-contig", 8, cluster.HDD, false, 0},
		{"ssd-contig", 8, cluster.SSD, false, 0},
		{"hdd-strided", 8, cluster.HDD, true, 0},
		{"ssd-strided", 4, cluster.SSD, true, 0},
		{"hdd-qd4", 4, cluster.HDD, false, 4},
		{"ssd-big", 2, cluster.SSD, true, 0},
	}
	if testing.Short() {
		// Keep one case per backend so the -race smoke still crosses the
		// shard boundary in both device models.
		cases = cases[:2]
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cluster.Default().Scale(tc.scale)
			cfg.Backend = tc.backend
			wl := workload.Spec{BlockBytes: 4 << 20, TransferSize: 256 << 10}
			if tc.strided {
				wl.Pattern = workload.Strided
			}
			wl.QD = tc.qd
			apps := TwoAppSpecs(cfg, 8, 4, wl)
			want := ""
			for _, k := range []int{1, 2, 3, 4, 1 + cfg.Servers} {
				res := PrepareSharded(cfg, apps, k).Run()
				got := fmt.Sprintf("%+v", res)
				if k == 1 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("shards=%d diverges from serial oracle:\n got %s\nwant %s", k, got, want)
				}
			}
		})
	}
}

// TestRunnerShardsOverride checks that Runner.Shards runs every simulation
// of a δ-graph on the sharded kernel and still matches the serial run.
func TestRunnerShardsOverride(t *testing.T) {
	cfg := cluster.Default().Scale(8)
	spec := DeltaSpec{
		Cfg:    cfg,
		Apps:   TwoAppSpecs(cfg, 8, 4, workload.Spec{BlockBytes: 2 << 20, TransferSize: 256 << 10}),
		Deltas: []sim.Time{0, 5 * sim.Millisecond},
	}
	serial := Runner{Parallelism: 1}.RunDelta(spec)
	sharded := Runner{Parallelism: 1, Shards: 3}.RunDelta(spec)

	if g, ws := fmt.Sprintf("%+v", sharded), fmt.Sprintf("%+v", serial); g != ws {
		t.Errorf("Runner.Shards=3 diverges from serial:\n got %s\nwant %s", g, ws)
	}
}
