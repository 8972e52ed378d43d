package scenario

import (
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// TestRecordReplayBuiltins is the acceptance pin for the record→replay
// round trip: replaying a recorded builtin scenario reproduces identical
// per-application completion times, on both backends, for the program-based
// builtins, a legacy single-burst one, and the two fault builtins, whose
// replays take the retry path the recorded runs took.
func TestRecordReplayBuiltins(t *testing.T) {
	names := []string{"periodic-checkpoint-4", "bursty-poisson-mix", "checkpoint-vs-read",
		"server-crash-checkpoint", "degraded-ost-victim"}
	for _, name := range names {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		s = s.Smoke()
		for _, backend := range []cluster.BackendKind{cluster.HDD, cluster.SSD} {
			t.Run(name+"@"+backend.String(), func(t *testing.T) {
				tr, res, err := Record(s, backend)
				if err != nil {
					t.Fatal(err)
				}
				if len(tr.Records) == 0 {
					t.Fatal("recorded no records")
				}
				rep, err := trace.Replay(tr)
				if err != nil {
					t.Fatal(err)
				}
				for i, a := range rep.Apps {
					if a.Start != res.Apps[i].Start || a.End != res.Apps[i].End {
						t.Errorf("app %s: recorded [%v..%v], replayed [%v..%v]",
							a.Name, res.Apps[i].Start, res.Apps[i].End, a.Start, a.End)
					}
				}
				if !rep.Identical() {
					t.Fatal("replay diverged from recording")
				}
			})
		}
	}
}

// TestTraceBlockReplay drives the declarative path end to end: record a
// builtin to a file, replay it through a spec with a "trace" block, then
// replay it again under a qos block (the counterfactual arm).
func TestTraceBlockReplay(t *testing.T) {
	s, err := Lookup("periodic-checkpoint-4")
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := Record(s.Smoke(), cluster.HDD)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.trace")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	spec := Spec{Name: "replay-ckpt", Trace: &TraceBlock{Path: path}}
	rep, loaded, err := Replay(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Records) != len(tr.Records) {
		t.Fatalf("loaded %d records, recorded %d", len(loaded.Records), len(tr.Records))
	}
	if !rep.Identical() {
		t.Fatal("file round trip broke replay bit-identity")
	}

	qspec := Spec{Name: "replay-ckpt-fairshare", Trace: &TraceBlock{Path: path},
		QoS: &QoS{Scheduler: "fairshare"}}
	qrep, _, err := Replay(qspec)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range qrep.Apps {
		if a.Elapsed <= 0 {
			t.Fatalf("app %s: non-positive counterfactual elapsed", a.Name)
		}
	}
}

// TestTraceSpecValidation pins the strictness of the trace block.
func TestTraceSpecValidation(t *testing.T) {
	ok := Spec{Name: "r", Trace: &TraceBlock{Path: "x.trace"}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{Name: "r", Trace: &TraceBlock{}},
		{Name: "r", Trace: &TraceBlock{Path: "x"}, Apps: []App{{Procs: 1, IO: IO{BlockMB: 1}}}},
		{Name: "r", Trace: &TraceBlock{Path: "x"}, DeltaS: []float64{0}},
		{Name: "r", Trace: &TraceBlock{Path: "x"}, Backend: "hdd"},
		{Name: "r", Trace: &TraceBlock{Path: "x"}, Servers: 4},
		{Name: "r", Trace: &TraceBlock{Path: "x"}, QoS: &QoS{}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	// A trace spec cannot Build — it replays.
	if _, _, err := ok.Build(cluster.HDD); err == nil {
		t.Fatal("expected Build to reject a trace scenario")
	}
	// Replay of a non-trace spec errors.
	if _, _, err := Replay(Spec{Name: "x", Apps: []App{{Procs: 1, IO: IO{BlockMB: 1}}}}); err == nil {
		t.Fatal("expected Replay to reject a non-trace scenario")
	}
}

// TestPhaseValidation pins the strictness of the phases block.
func TestPhaseValidation(t *testing.T) {
	prog := func(apps ...App) Spec { return Spec{Name: "p", Apps: apps} }
	good := []Spec{
		prog(App{Procs: 4, Iterations: 2, Phases: []Phase{
			{Kind: "barrier"},
			{Kind: "io", IO: IO{BlockMB: 1}},
			{Kind: "compute", ComputeS: 0.1, JitterS: 0.2},
		}}),
		prog(App{Procs: 4, Phases: []Phase{
			{Kind: "io", IO: IO{Pattern: "strided", BlockMB: 1, TransferKB: 256, QD: 4}},
		}}),
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("good case %d: %v", i, err)
		}
	}
	bad := []Spec{
		// phases + single-burst knobs
		prog(App{Procs: 4, IO: IO{BlockMB: 1}, Phases: []Phase{{Kind: "io", IO: IO{BlockMB: 1}}}}),
		// iterations without phases
		prog(App{Procs: 4, IO: IO{BlockMB: 1}, Iterations: 2}),
		// seed without phases
		prog(App{Procs: 4, IO: IO{BlockMB: 1}, Seed: 3}),
		// missing kind
		prog(App{Procs: 4, Phases: []Phase{{IO: IO{BlockMB: 1}}}}),
		// unknown kind
		prog(App{Procs: 4, Phases: []Phase{{Kind: "wait"}}}),
		// io phase without block_mb
		prog(App{Procs: 4, Phases: []Phase{{Kind: "io"}}}),
		// io phase with compute knobs
		prog(App{Procs: 4, Phases: []Phase{{Kind: "io", IO: IO{BlockMB: 1}, ComputeS: 1}}}),
		// strided io phase without transfer
		prog(App{Procs: 4, Phases: []Phase{{Kind: "io", IO: IO{Pattern: "strided", BlockMB: 1}}}}),
		// indivisible strided io phase
		prog(App{Procs: 4, Phases: []Phase{{Kind: "io", IO: IO{Pattern: "strided", BlockMB: 1, TransferKB: 300}}}}),
		// compute phase with io knobs
		prog(App{Procs: 4, Phases: []Phase{{Kind: "compute", IO: IO{BlockMB: 1}}}}),
		// negative compute
		prog(App{Procs: 4, Phases: []Phase{{Kind: "compute", ComputeS: -1}}}),
		// barrier phase with knobs
		prog(App{Procs: 4, Phases: []Phase{{Kind: "barrier", ComputeS: 1}}}),
		// negative iterations
		prog(App{Procs: 4, Iterations: -1, Phases: []Phase{{Kind: "io", IO: IO{BlockMB: 1}}}}),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad case %d: expected validation error", i)
		}
	}
}

// TestSmokeShrinksPhases: smoke scaling reaches into program phases.
func TestSmokeShrinksPhases(t *testing.T) {
	s, err := Lookup("periodic-checkpoint-4")
	if err != nil {
		t.Fatal(err)
	}
	sm := s.Smoke()
	ck := sm.Apps[0]
	if ck.Procs != 4 {
		t.Fatalf("procs = %d, want 4", ck.Procs)
	}
	if got := ck.Phases[1].BlockMB; got != 1 {
		t.Fatalf("io phase block_mb = %d, want 1", got)
	}
	if got := ck.Phases[2].ComputeS; got != 2.0/128 {
		t.Fatalf("compute_s = %v, want %v", got, 2.0/128)
	}
	if err := sm.Validate(); err != nil {
		t.Fatal(err)
	}
	// The smoke spec still records and replays bit-identically.
	tr, _, err := Record(sm, cluster.HDD)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := trace.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical() {
		t.Fatal("smoke replay diverged")
	}
}
