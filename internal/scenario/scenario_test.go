package scenario

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestQoSBlockCompilesAndValidates: the declarative qos block compiles
// into scheduler params with unit conversion, strict scheduler-name
// validation, and rejection of negative knobs.
func TestQoSBlockCompilesAndValidates(t *testing.T) {
	spec := Spec{
		Name: "q", Servers: 2,
		QoS:  &QoS{Scheduler: "tokenbucket", RateMBps: 32, BurstMB: 2, FlowSlots: 4},
		Apps: []App{{Procs: 4, IO: IO{BlockMB: 8}}},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg, _, err := spec.Build(cluster.HDD)
	if err != nil {
		t.Fatal(err)
	}
	qp := cfg.Srv.QoS
	if qp.Kind != qos.TokenBucket || qp.RateBytesPerSec != 32e6 || qp.BurstBytes != 2<<20 || qp.FlowSlots != 4 {
		t.Fatalf("qos params not compiled: %+v", qp)
	}

	spec.QoS = &QoS{Scheduler: "fairshare", QuantumKB: 512, InflightChunks: 2, TickMS: 1.5}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	qp2, err := spec.QoS.Params()
	if err != nil {
		t.Fatal(err)
	}
	if qp2.QuantumBytes != 512<<10 || qp2.InflightChunks != 2 || qp2.Tick != 1500*sim.Microsecond {
		t.Fatalf("unit conversion wrong: %+v", qp2)
	}

	bad := []*QoS{
		{Scheduler: "bogus"},
		{InflightChunks: 2}, // forgotten "scheduler" must not silently run Off
		{Scheduler: "fairshare", QuantumKB: -1},
		{Scheduler: "tokenbucket", RateMBps: -5},
		{Scheduler: "controller", TickMS: -1},
	}
	for i, q := range bad {
		spec.QoS = q
		if err := spec.Validate(); err == nil {
			t.Errorf("bad qos block %d passed validation", i)
		}
	}
	// A typo'd field name fails loudly, like everywhere else in the format.
	if _, err := Parse([]byte(`{"name":"x","apps":[{"procs":1,"block_mb":1}],` +
		`"qos":{"scheduler":"fairshare","quantumkb":1}}`)); err == nil {
		t.Error("unknown qos field accepted")
	}
	// The error of an unknown scheduler lists the valid set.
	spec.QoS = &QoS{Scheduler: "bogus"}
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "fairshare") {
		t.Errorf("unknown scheduler error should list the valid set, got %v", err)
	}
}

// TestQoSBlockChangesResults: a scenario run under a qos block must
// produce a different δ-graph than the unmitigated run on HDD (the knob is
// actually wired through Build into the platform).
func TestQoSBlockChangesResults(t *testing.T) {
	s, err := Lookup("aggressor-victim")
	if err != nil {
		t.Fatal(err)
	}
	s = s.Smoke()
	pool := core.Runner{Parallelism: 0}
	off, err := Run(s, cluster.HDD, pool)
	if err != nil {
		t.Fatal(err)
	}
	s.QoS = &QoS{Scheduler: "fairshare"}
	fair, err := Run(s, cluster.HDD, pool)
	if err != nil {
		t.Fatal(err)
	}
	if off.Graph.PeakIF() <= fair.Graph.PeakIF() {
		t.Fatalf("fairshare did not reduce peak IF: off %v fair %v",
			off.Graph.PeakIF(), fair.Graph.PeakIF())
	}
}

func TestBuiltinsValidateAndBuild(t *testing.T) {
	bs := Builtin()
	if len(bs) < 6 {
		t.Fatalf("registry has %d scenarios, want >= 6", len(bs))
	}
	seen := map[string]bool{}
	for _, s := range bs {
		if seen[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Description == "" {
			t.Errorf("%s: missing description", s.Name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		backends, err := s.Backends()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, b := range backends {
			if _, _, err := s.Build(b); err != nil {
				t.Errorf("%s on %s: %v", s.Name, b, err)
			}
			if _, _, err := s.Smoke().Build(b); err != nil {
				t.Errorf("%s (smoke) on %s: %v", s.Name, b, err)
			}
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("elephant-mice"); err != nil {
		t.Fatalf("known scenario rejected: %v", err)
	}
	_, err := Lookup("no-such-scenario")
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if !strings.Contains(err.Error(), "elephant-mice") {
		t.Fatalf("lookup error should list the valid set, got: %v", err)
	}
}

// TestValidationErrors covers every rejection path with a message check:
// a bad spec in a batch must say which scenario, which app and which knob.
func TestValidationErrors(t *testing.T) {
	base := func() Spec {
		return Spec{
			Name:    "t",
			Servers: 4,
			Apps:    []App{{Name: "A", Procs: 4, IO: IO{BlockMB: 8}}},
		}
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"missing name", func(s *Spec) { s.Name = "" }, "missing name"},
		{"no apps", func(s *Spec) { s.Apps = nil }, "at least one app"},
		{"bad backend", func(s *Spec) { s.Backend = "floppy" }, "valid: hdd, ssd, ram, null"},
		{"bad sync", func(s *Spec) { s.Sync = "maybe" }, "valid: on, off, null-aio"},
		{"bad pattern", func(s *Spec) { s.Apps[0].Pattern = "zigzag" }, "valid: contiguous, strided"},
		{"zero procs", func(s *Spec) { s.Apps[0].Procs = 0 }, "procs must be > 0"},
		{"zero block", func(s *Spec) { s.Apps[0].BlockMB = 0 }, "block_mb must be > 0"},
		{"strided without transfer", func(s *Spec) {
			s.Apps[0].Pattern = "strided"
		}, "transfer_kb > 0"},
		{"indivisible transfer", func(s *Spec) {
			s.Apps[0].Pattern = "strided"
			s.Apps[0].BlockMB = 1
			s.Apps[0].TransferKB = 768
		}, "not divisible"},
		{"target out of range", func(s *Spec) {
			s.Apps[0].TargetServers = []int{4}
		}, "outside the 4-server platform"},
		{"negative start", func(s *Spec) { s.Apps[0].StartS = -1 }, "negative parameter"},
		{"negative servers", func(s *Spec) { s.Servers = -1 }, "negative platform parameter"},
		// Times past sim.MaxSeconds, NaN and infinities; past about 9.2e9 s
		// a value would wrap into a negative clock time.
		{"delta past the clock", func(s *Spec) { s.DeltaS = []float64{0, 1e10} }, "got 1e+10 (point 1)"},
		{"delta below the bound", func(s *Spec) { s.DeltaS = []float64{-2e6} }, "got -2e+06 (point 0)"},
		{"NaN delta", func(s *Spec) { s.DeltaS = []float64{math.NaN()} }, "got NaN (point 0)"},
		{"infinite delta", func(s *Spec) { s.DeltaS = []float64{0, math.Inf(1)} }, "got +Inf (point 1)"},
		{"start past the bound", func(s *Spec) { s.Apps[0].StartS = 2e6 }, "start_s"},
		{"think past the clock", func(s *Spec) { s.Apps[0].ThinkMS = 1e300 }, "think_ms"},
		{"phase think past the clock", func(s *Spec) {
			s.Apps[0] = App{Procs: 4, Phases: []Phase{{Kind: "io", IO: IO{BlockMB: 8, ThinkMS: 1e300}}}}
		}, "think_ms"},
		{"compute past the clock", func(s *Spec) {
			s.Apps[0] = App{Procs: 4, Phases: []Phase{{Kind: "io", IO: IO{BlockMB: 8}}, {Kind: "compute", ComputeS: 1e10}}}
		}, "compute_s"},
		{"jitter past the bound", func(s *Spec) {
			s.Apps[0] = App{Procs: 4, Phases: []Phase{{Kind: "compute", JitterS: 2e6}, {Kind: "io", IO: IO{BlockMB: 8}}}}
		}, "jitter_s"},
		{"qos tick past the bound", func(s *Spec) {
			s.QoS = &QoS{Scheduler: "controller", TickMS: 1e10}
		}, "tick_ms"},
		{"fault past the bound", func(s *Spec) {
			s.Faults = &FaultBlock{Events: []FaultEvent{
				{Kind: "server-crash", AtS: 1e7}, {Kind: "server-restart", AtS: 2e7}}}
		}, "at_s"},
		{"loss burst past the bound", func(s *Spec) {
			s.Faults = &FaultBlock{Events: []FaultEvent{{Kind: "loss-burst", AtS: 1, DurationS: 1e7}}}
		}, "duration_s"},
		{"degrade latency past the bound", func(s *Spec) {
			s.Faults = &FaultBlock{Events: []FaultEvent{{Kind: "device-degrade", AtS: 1, Factor: 2, LatencyMS: 1e10}}}
		}, "latency_ms"},
		{"retry deadline past the bound", func(s *Spec) { s.Faults = &FaultBlock{DeadlineMS: 1e10} }, "deadline_ms"},
	}
	for _, tc := range cases {
		s := base()
		tc.mut(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","apps":[{"procs":2,"block_mb":4}],"block_gb":1}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `{
		"name": "pair",
		"servers": 2,
		"delta_s": [0, 5],
		"apps": [
			{"name": "w", "procs": 4, "block_mb": 8},
			{"name": "r", "procs": 4, "block_mb": 8, "read": true, "start_s": 1.5}
		]
	}`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.Apps[1].StartS != 1.5 || !s.Apps[1].Read {
		t.Fatalf("parsed spec lost fields: %+v", s.Apps[1])
	}
	cfg, ds, err := s.Build(cluster.SSD)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Servers != 2 || cfg.Backend != cluster.SSD {
		t.Fatalf("cfg = %+v", cfg)
	}
	if len(ds.Apps) != 2 || len(ds.Deltas) != 2 || len(ds.StartOffsets) != 2 {
		t.Fatalf("delta spec = %+v", ds)
	}
	// Auto-sized platform: 4 procs at 16 ppn per app = 1 node each.
	if cfg.ComputeNodes != 2 {
		t.Fatalf("auto-sized nodes = %d, want 2", cfg.ComputeNodes)
	}
	// Apps are packed onto disjoint node ranges.
	if ds.Apps[0].FirstNode == ds.Apps[1].FirstNode {
		t.Fatal("apps share a node range")
	}
}

// TestAppBurstIsOneIOPhase: an app's single-burst keys and the same keys
// written as its one "io" phase run the same experiment — equal δ-graphs
// and IF matrices, and equal recordings, records and app tables alike.
func TestAppBurstIsOneIOPhase(t *testing.T) {
	const pair = `{"name":"eq","backend":"hdd","servers":2,"delta_s":[0,0.05],"apps":[%s,` +
		`{"procs":4,"pattern":"strided","block_mb":4,"transfer_kb":256}]}`
	var graphs []*Result
	var traces []*trace.Trace
	for _, app := range []string{
		`{"procs":8,"block_mb":16,"qd":4}`,
		`{"procs":8,"phases":[{"kind":"io","block_mb":16,"qd":4}]}`,
	} {
		s, err := Parse([]byte(fmt.Sprintf(pair, app)))
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(s, cluster.HDD, core.Runner{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := Record(s, cluster.HDD)
		if err != nil {
			t.Fatal(err)
		}
		graphs, traces = append(graphs, r), append(traces, tr)
	}
	if len(traces[0].Records) == 0 {
		t.Fatal("recorded no records")
	}
	if !reflect.DeepEqual(graphs[0].Graph, graphs[1].Graph) {
		t.Errorf("δ-graphs differ:\n%+v\n%+v", graphs[0].Graph, graphs[1].Graph)
	}
	if !reflect.DeepEqual(graphs[0].Matrix, graphs[1].Matrix) {
		t.Errorf("IF matrices differ:\n%+v\n%+v", graphs[0].Matrix, graphs[1].Matrix)
	}
	if !reflect.DeepEqual(traces[0], traces[1]) {
		t.Errorf("recordings differ: %d vs %d records", len(traces[0].Records), len(traces[1].Records))
	}
}

func TestBuildPinnedBackend(t *testing.T) {
	s := Spec{Name: "pinned", Backend: "ram", Apps: []App{{Procs: 2, IO: IO{BlockMB: 4}}}}
	backends, err := s.Backends()
	if err != nil {
		t.Fatal(err)
	}
	if len(backends) != 1 || backends[0] != cluster.RAM {
		t.Fatalf("backends = %v, want just ram", backends)
	}
}

func TestSmokeShrinks(t *testing.T) {
	s, err := Lookup("strided-pileup-3")
	if err != nil {
		t.Fatal(err)
	}
	sm := s.Smoke()
	if sm.Apps[0].Procs >= s.Apps[0].Procs {
		t.Fatalf("smoke procs %d not smaller than %d", sm.Apps[0].Procs, s.Apps[0].Procs)
	}
	if sm.Apps[0].BlockMB >= s.Apps[0].BlockMB {
		t.Fatalf("smoke block %d not smaller than %d", sm.Apps[0].BlockMB, s.Apps[0].BlockMB)
	}
	if len(sm.DeltaS) > 3 {
		t.Fatalf("smoke grid %v has more than 3 points", sm.DeltaS)
	}
	if sm.Servers != s.Servers {
		t.Fatalf("smoke changed server count: %d vs %d", sm.Servers, s.Servers)
	}
	// Time axes shrink with the load so arrival geometry is preserved.
	if sm.DeltaS[0] != s.DeltaS[0]/128 {
		t.Fatalf("smoke δ %v not scaled from %v", sm.DeltaS[0], s.DeltaS[0])
	}
	stag, err := Lookup("staggered-arrivals-4")
	if err != nil {
		t.Fatal(err)
	}
	if got := stag.Smoke().Apps[1].StartS; got != stag.Apps[1].StartS/128 {
		t.Fatalf("smoke start_s = %v, want offsets scaled with the load", got)
	}
	if err := sm.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSmokeGridAndPatternEdgeCases: the δ-grid reduction must not
// duplicate points, and the strided-divisibility fallback must honor
// case-insensitive patterns (Validate accepts "Strided" too).
func TestSmokeGridAndPatternEdgeCases(t *testing.T) {
	s := Spec{
		Name:    "edge",
		Servers: 2,
		DeltaS:  []float64{0, 2, 5, 10},
		Apps:    []App{{Procs: 16, IO: IO{Pattern: "Strided", BlockMB: 20, TransferKB: 4096}}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	sm := s.Smoke()
	if want := []float64{0, 10.0 / 128}; len(sm.DeltaS) != 2 || sm.DeltaS[0] != want[0] || sm.DeltaS[1] != want[1] {
		t.Fatalf("smoke grid = %v, want %v (no duplicate zero, time axis scaled)", sm.DeltaS, want)
	}
	// 20 MiB / 16 = 1 MiB is no longer divisible by 4 MiB transfers: the
	// fallback must fire despite the capitalized pattern name.
	if err := sm.Validate(); err != nil {
		t.Fatalf("smoke of a valid spec became invalid: %v", err)
	}
	if _, _, err := sm.Build(cluster.HDD); err != nil {
		t.Fatalf("smoke build: %v", err)
	}
}

// TestRunSmokeScenario drives one full Run end to end on both backends and
// sanity-checks result shapes: completion vector length, IF matrix diagonal
// and every point's per-app slices.
func TestRunSmokeScenario(t *testing.T) {
	s, err := Lookup("elephant-mice")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunAll(s.Smoke(), core.Runner{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want hdd+ssd", len(results))
	}
	for _, r := range results {
		n := len(s.Apps)
		if len(r.Graph.Alone) != n {
			t.Fatalf("%s: completion vector has %d entries, want %d", r.Backend, len(r.Graph.Alone), n)
		}
		for _, p := range r.Graph.Points {
			if len(p.Elapsed) != n || len(p.IF) != n {
				t.Fatalf("%s: point slices sized %d/%d, want %d", r.Backend, len(p.Elapsed), len(p.IF), n)
			}
		}
		if r.Matrix.Dim() != n {
			t.Fatalf("%s: matrix dim %d, want %d", r.Backend, r.Matrix.Dim(), n)
		}
		for i := 0; i < n; i++ {
			if r.Matrix.Cell[i][i] != 1 {
				t.Fatalf("%s: diagonal [%d][%d] = %v, want 1", r.Backend, i, i, r.Matrix.Cell[i][i])
			}
			for j := 0; j < n; j++ {
				if r.Matrix.Cell[i][j] < 0.99 {
					t.Fatalf("%s: IF[%d][%d] = %v < 1", r.Backend, i, j, r.Matrix.Cell[i][j])
				}
			}
		}
		// The elephant must hurt the mice more than they hurt it.
		mouseIF := r.Matrix.Cell[1][0]
		elephantIF := r.Matrix.Cell[0][1]
		if mouseIF <= elephantIF {
			t.Errorf("%s: mouse IF %.2f <= elephant IF %.2f, expected asymmetry", r.Backend, mouseIF, elephantIF)
		}
	}
}

// TestRunDeterministicAcrossPools pins scenario results to be identical on
// a serial and a parallel pool (the scenario layer inherits core.Runner's
// guarantee).
func TestRunDeterministicAcrossPools(t *testing.T) {
	s, err := Lookup("staggered-arrivals-4")
	if err != nil {
		t.Fatal(err)
	}
	sm := s.Smoke()
	a, err := Run(sm, cluster.SSD, core.Runner{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sm, cluster.SSD, core.Runner{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.PeakIF() != b.Graph.PeakIF() {
		t.Fatalf("peak IF diverged across pools: %v vs %v", a.Graph.PeakIF(), b.Graph.PeakIF())
	}
	for i := range a.Graph.Points {
		for j := range a.Graph.Points[i].Elapsed {
			if a.Graph.Points[i].Elapsed[j] != b.Graph.Points[i].Elapsed[j] {
				t.Fatalf("point %d app %d diverged", i, j)
			}
		}
	}
	for i := range a.Matrix.Cell {
		for j := range a.Matrix.Cell[i] {
			if a.Matrix.Cell[i][j] != b.Matrix.Cell[i][j] {
				t.Fatalf("matrix [%d][%d] diverged", i, j)
			}
		}
	}
}

// TestRenderBaselinesPatterns pins the baselines table's pattern column:
// a single-burst app shows its burst's pattern, and an app with phases the
// patterns of its io phases, so the phased readers of periodic-checkpoint-4
// and bursty-poisson-mix read strided, not the empty single burst's
// contiguous.
func TestRenderBaselinesPatterns(t *testing.T) {
	io := func(pattern string) Phase {
		return Phase{Kind: "io", IO: IO{Pattern: pattern, BlockMB: 4, TransferKB: 64}}
	}
	compute := Phase{Kind: "compute", ComputeS: 0.1}
	hand := Spec{Name: "labels", Apps: []App{
		{Name: "plain", Procs: 1, IO: IO{BlockMB: 4}},
		{Name: "strided", Procs: 1, IO: IO{Pattern: "strided", BlockMB: 4, TransferKB: 64}},
		{Name: "phased", Procs: 1, Phases: []Phase{compute, io("Strided"), compute, io("strided")}},
		{Name: "mixed", Procs: 1, Phases: []Phase{io("strided"), {Kind: "barrier"}, io(""), io("contig")}},
		{Name: "idle", Procs: 1, Phases: []Phase{compute}},
	}}
	want := map[string][]string{
		"labels":                {"contiguous", "strided", "strided", "strided+contiguous", "none"},
		"periodic-checkpoint-4": {"contiguous", "strided"},
		"bursty-poisson-mix":    {"contiguous", "contiguous", "strided"},
	}
	specs := []Spec{hand}
	for _, name := range []string{"periodic-checkpoint-4", "bursty-poisson-mix"} {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		r := &Result{Spec: s, Backend: cluster.HDD,
			Graph:  &core.DeltaGraph{Alone: make([]sim.Time, len(s.Apps))},
			Matrix: &core.IFMatrix{Names: AppNames(s)}}
		var got []string
		for _, row := range RenderBaselines(r).Rows {
			got = append(got, row[2])
		}
		if !reflect.DeepEqual(got, want[s.Name]) {
			t.Errorf("%s: pattern column %q, want %q", s.Name, got, want[s.Name])
		}
	}
}
