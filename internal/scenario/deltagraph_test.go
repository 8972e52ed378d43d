package scenario

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestDeltagraphSpecIsTheTwoAppGraph pins examples/specs/deltagraph.json
// to the two-application δ-graph it spells declaratively, rebuilt here the
// direct way: the paper-default platform resized to 8 nodes × 16 cores and
// 2 HDD servers with sync on, two equal 64-process contiguous writers of
// 64 MiB per process from core.TwoAppSpecs, and nine evenly spaced δ
// points over ±40 s. The platform, the grid and the apps every δ point
// launches must all match exactly. Apps are compared through AppsAt
// because Build sets explicit zero start offsets where the direct spec
// leaves them nil; both launch the same apps.
func TestDeltagraphSpecIsTheTwoAppGraph(t *testing.T) {
	s, err := Load("../../examples/specs/deltagraph.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg, got, err := s.Build(cluster.HDD)
	if err != nil {
		t.Fatal(err)
	}

	want := cluster.Default()
	want.ComputeNodes, want.CoresPerNode, want.Servers = 8, 16, 2
	want.Backend, want.Sync = cluster.HDD, pfs.SyncOn
	const procs, ppn, points, span = 64, 16, 9, 40.0
	wl := workload.Spec{Pattern: workload.Contiguous, BlockBytes: 64 << 20}
	var deltas []sim.Time
	for i := 0; i < points; i++ {
		frac := float64(i)/float64(points-1)*2 - 1
		deltas = append(deltas, sim.Seconds(frac*span))
	}
	ref := core.DeltaSpec{Cfg: want, Apps: core.TwoAppSpecs(want, procs, ppn, wl), Deltas: deltas}

	if !reflect.DeepEqual(cfg, want) || !reflect.DeepEqual(got.Cfg, want) {
		t.Fatalf("platform differs:\n got %+v\nwant %+v", got.Cfg, want)
	}
	if !reflect.DeepEqual(got.Deltas, ref.Deltas) {
		t.Fatalf("delta grid = %v, want %v", got.Deltas, ref.Deltas)
	}
	for _, d := range ref.Deltas {
		if a, b := got.AppsAt(d), ref.AppsAt(d); !reflect.DeepEqual(a, b) {
			t.Fatalf("apps at delta %v differ:\n got %+v\nwant %+v", d, a, b)
		}
	}
}
