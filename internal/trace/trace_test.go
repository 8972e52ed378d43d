package trace_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pfs"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testCfg is a small platform that keeps trace tests fast.
func testCfg() cluster.Config {
	cfg := cluster.Default()
	cfg.ComputeNodes = 4
	cfg.CoresPerNode = 4
	cfg.Servers = 2
	return cfg
}

// checkpointProgram is a 3-iteration periodic checkpoint: collective entry
// barrier, contiguous burst, fixed compute pause.
func checkpointProgram(block int64) *workload.Program {
	return &workload.Program{
		Iterations: 3,
		Phases: []workload.Phase{
			{Kind: workload.PhaseBarrier},
			{Kind: workload.PhaseIO, IO: workload.Spec{Pattern: workload.Contiguous, BlockBytes: block}},
			{Kind: workload.PhaseCompute, Compute: int64(20 * sim.Millisecond)},
		},
		Seed: 7,
	}
}

// roundTrip records the given apps, replays the trace on the same platform,
// and requires bit-identical per-app completion windows AND a bit-identical
// re-recorded stream.
func roundTrip(t *testing.T, cfg cluster.Config, apps []core.AppSpec) (*trace.Trace, *trace.ReplayResult) {
	t.Helper()
	tr, res := trace.RecordRun(cfg, apps)
	if len(tr.Records) == 0 {
		t.Fatal("recorded no records")
	}
	rep, err := trace.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical() {
		for i, a := range rep.Apps {
			t.Errorf("app %s: recorded [%d..%d], replayed [%d..%d]",
				a.Name, rep.Recorded[i].PhaseStart, rep.Recorded[i].PhaseEnd, a.Start, a.End)
		}
		t.Fatal("replay diverged from recording")
	}
	for i, a := range rep.Apps {
		if a.Elapsed != res.Apps[i].Elapsed {
			t.Fatalf("app %s: replayed elapsed %v, recorded %v", a.Name, a.Elapsed, res.Apps[i].Elapsed)
		}
	}
	if len(rep.Trace.Records) != len(tr.Records) {
		t.Fatalf("replay recorded %d records, original %d", len(rep.Trace.Records), len(tr.Records))
	}
	for i := range tr.Records {
		if tr.Records[i] != rep.Trace.Records[i] {
			t.Fatalf("record %d diverged:\n recorded %+v\n replayed %+v", i, tr.Records[i], rep.Trace.Records[i])
		}
	}
	return tr, rep
}

// TestRoundTripBlocking pins the determinism contract on the main case: a
// barrier-synchronized periodic checkpoint program co-running with a plain
// contiguous writer, both blocking (QD <= 1).
func TestRoundTripBlocking(t *testing.T) {
	cfg := testCfg()
	apps := []core.AppSpec{
		{Name: "ckpt", Procs: 8, FirstNode: 0, ProcsPerNode: 4,
			Program: checkpointProgram(1 << 20)},
		{Name: "bulk", Procs: 4, FirstNode: 2, ProcsPerNode: 4,
			Workload: workload.Spec{Pattern: workload.Contiguous, BlockBytes: 2 << 20}},
	}
	tr, _ := roundTrip(t, cfg, apps)
	// The checkpoint app must have emitted its barrier records.
	sums := trace.Summarize(tr)
	if want := int64(3 * 8); sums[0].Barriers != want {
		t.Fatalf("ckpt barriers = %d, want %d", sums[0].Barriers, want)
	}
	if want := int64(3 * 8); sums[0].Writes != want {
		t.Fatalf("ckpt writes = %d, want %d", sums[0].Writes, want)
	}
}

// TestRoundTripPipelined pins the contract for a queue-depth>1 single-burst
// application (one semaphore window, like a pipelined io phase of
// core.runProgram).
func TestRoundTripPipelined(t *testing.T) {
	cfg := testCfg()
	apps := []core.AppSpec{
		{Name: "pipe", Procs: 4, FirstNode: 0, ProcsPerNode: 4,
			Workload: workload.Spec{Pattern: workload.Strided, BlockBytes: 2 << 20,
				TransferSize: 256 << 10, QD: 4}},
		{Name: "other", Procs: 4, FirstNode: 1, ProcsPerNode: 4,
			Workload: workload.Spec{Pattern: workload.Contiguous, BlockBytes: 1 << 20}},
	}
	roundTrip(t, cfg, apps)
}

// TestRoundTripPipelinedBarriers pins the contract for a queue-depth>1
// program whose I/O phases are separated by barriers: the replayer splits
// each rank's records at its barrier records and issues every segment
// through its own semaphore window.
func TestRoundTripPipelinedBarriers(t *testing.T) {
	cfg := testCfg()
	strided := func(read bool) workload.Spec {
		return workload.Spec{Pattern: workload.Strided, BlockBytes: 1 << 20,
			TransferSize: 128 << 10, QD: 4, Read: read}
	}
	prog := &workload.Program{
		Iterations: 2,
		Phases: []workload.Phase{
			{Kind: workload.PhaseBarrier},
			{Kind: workload.PhaseIO, IO: strided(false)},
			{Kind: workload.PhaseBarrier},
			{Kind: workload.PhaseIO, IO: strided(true)},
			{Kind: workload.PhaseCompute, Compute: int64(5 * sim.Millisecond)},
		},
		Seed: 3,
	}
	apps := []core.AppSpec{
		{Name: "pipe", Procs: 4, FirstNode: 0, ProcsPerNode: 4, Program: prog},
		{Name: "other", Procs: 4, FirstNode: 1, ProcsPerNode: 4,
			Workload: workload.Spec{Pattern: workload.Contiguous, BlockBytes: 2 << 20}},
	}
	tr, _ := roundTrip(t, cfg, apps)
	if s := trace.Summarize(tr)[0]; s.Barriers != 2*2*4 || s.MaxQD < 2 {
		t.Fatalf("pipe: %d barrier records and max QD %d, want 16 and at least 2", s.Barriers, s.MaxQD)
	}
}

// TestRoundTripJitter pins the contract for a Poisson-jittered bursty
// program: the seeded jitter stream reproduces, so the replay does too.
func TestRoundTripJitter(t *testing.T) {
	cfg := testCfg()
	bursty := func(seed uint64) *workload.Program {
		return &workload.Program{
			Iterations: 3,
			Phases: []workload.Phase{
				{Kind: workload.PhaseCompute, Compute: int64(5 * sim.Millisecond),
					JitterMean: int64(15 * sim.Millisecond)},
				{Kind: workload.PhaseIO, IO: workload.Spec{Pattern: workload.Contiguous, BlockBytes: 1 << 20}},
			},
			Seed: seed,
		}
	}
	apps := []core.AppSpec{
		{Name: "t1", Procs: 4, FirstNode: 0, ProcsPerNode: 4, Program: bursty(11)},
		{Name: "t2", Procs: 4, FirstNode: 1, ProcsPerNode: 4, Program: bursty(23)},
	}
	tr, _ := roundTrip(t, cfg, apps)
	// Distinct seeds must decorrelate the two tenants' burst times.
	var first [2]sim.Time
	seen := [2]bool{}
	for _, r := range tr.Records {
		if !seen[r.App] {
			first[r.App] = r.Time
			seen[r.App] = true
		}
	}
	if first[0] == first[1] {
		t.Fatalf("tenants with distinct seeds issued first bursts at the same time %v", first[0])
	}
}

// TestProgramDeterminism: two fresh runs of a jittered program produce
// byte-identical traces.
func TestProgramDeterminism(t *testing.T) {
	cfg := testCfg()
	apps := []core.AppSpec{
		{Name: "t1", Procs: 4, FirstNode: 0, ProcsPerNode: 4,
			Program: &workload.Program{
				Iterations: 2,
				Phases: []workload.Phase{
					{Kind: workload.PhaseCompute, Compute: int64(sim.Millisecond), JitterMean: int64(10 * sim.Millisecond)},
					{Kind: workload.PhaseIO, IO: workload.Spec{Pattern: workload.Contiguous, BlockBytes: 1 << 20}},
				},
				Seed: 42,
			}},
	}
	a, resA := trace.RecordRun(cfg, apps)
	b, resB := trace.RecordRun(cfg, apps)
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatal("two identical runs recorded different traces")
	}
	if resA.Apps[0].Elapsed != resB.Apps[0].Elapsed {
		t.Fatal("two identical runs finished at different times")
	}
}

// TestReplayCounterfactual replays a recorded trace on a modified platform
// (fair-share QoS enabled): the replay must complete sanely, and the
// bit-identity guarantee explicitly does not apply.
func TestReplayCounterfactual(t *testing.T) {
	cfg := testCfg()
	apps := []core.AppSpec{
		{Name: "ckpt", Procs: 8, FirstNode: 0, ProcsPerNode: 4,
			Program: checkpointProgram(1 << 20)},
		{Name: "bulk", Procs: 4, FirstNode: 2, ProcsPerNode: 4,
			Workload: workload.Spec{Pattern: workload.Contiguous, BlockBytes: 2 << 20}},
	}
	tr, _ := trace.RecordRun(cfg, apps)
	qcfg := cfg
	qcfg.Srv.QoS = qos.Params{Kind: qos.FairShare, FlowSlots: 2}
	rep, err := trace.ReplayOn(tr, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range rep.Apps {
		if a.Elapsed <= 0 {
			t.Fatalf("app %s: non-positive replayed elapsed %v", a.Name, a.Elapsed)
		}
		// The replay's own trace must describe the replay's outcome, not
		// the original's — a saved counterfactual trace verifies against
		// itself.
		if h := rep.Trace.Header.Apps[i]; h.PhaseStart != a.Start || h.PhaseEnd != a.End {
			t.Fatalf("app %s: replay trace header window [%v..%v] != replayed [%v..%v]",
				a.Name, h.PhaseStart, h.PhaseEnd, a.Start, a.End)
		}
	}
}

// TestFormatRoundTrip: Write then Read reproduces header and records.
func TestFormatRoundTrip(t *testing.T) {
	cfg := testCfg()
	apps := []core.AppSpec{
		{Name: "ckpt", Procs: 4, FirstNode: 0, ProcsPerNode: 4,
			Program: checkpointProgram(1 << 20)},
	}
	tr, _ := trace.RecordRun(cfg, apps)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Header, tr.Header) {
		t.Fatalf("header drift:\n got %+v\nwant %+v", got.Header, tr.Header)
	}
	if !reflect.DeepEqual(got.Records, tr.Records) {
		t.Fatal("records drift through the format")
	}
	// And the decoded trace must replay bit-identically too — the on-disk
	// format preserves everything replay needs.
	rep, err := trace.Replay(got)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical() {
		t.Fatal("replay of a decoded trace diverged")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := trace.Read(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Fatal("expected an error for a bad magic")
	}
}

// TestSummarize checks the Darshan-style counters on a hand-built trace.
func TestSummarize(t *testing.T) {
	ms := sim.Millisecond
	tr := &trace.Trace{
		Header: trace.Header{
			Apps: []trace.AppInfo{{Name: "A", Procs: 2, PPN: 2, PhaseStart: 0, PhaseEnd: 10 * ms}},
		},
		Records: []trace.Record{
			{Time: 0, Latency: 2 * ms, Off: 0, Bytes: 128 << 10, App: 0, Rank: 0, QD: 1, Op: pfs.OpWrite},
			{Time: 2 * ms, Latency: 2 * ms, Off: 128 << 10, Bytes: 128 << 10, App: 0, Rank: 0, QD: 1, Op: pfs.OpWrite},
			{Time: 0, Latency: 3 * ms, Off: 1 << 30, Bytes: 8 << 20, App: 0, Rank: 1, QD: 2, Op: pfs.OpRead},
			{Time: 5 * ms, Latency: 1 * ms, App: 0, Rank: 0, Op: pfs.OpBarrier},
		},
	}
	s := trace.Summarize(tr)[0]
	if s.Writes != 2 || s.Reads != 1 || s.Barriers != 1 {
		t.Fatalf("counts: %+v", s)
	}
	if s.BytesWritten != 256<<10 || s.BytesRead != 8<<20 {
		t.Fatalf("bytes: %+v", s)
	}
	if s.IOTime != 7*ms || s.BarrierTime != 1*ms {
		t.Fatalf("times: io %v barrier %v", s.IOTime, s.BarrierTime)
	}
	if s.MinLat != 2*ms || s.MaxLat != 3*ms || s.MaxQD != 2 {
		t.Fatalf("lat: %+v", s)
	}
	// Rank 0's second write continues at the first's end offset.
	if s.Sequential != 1 {
		t.Fatalf("sequential = %d, want 1", s.Sequential)
	}
	// 128 KiB requests land in the 64-256K bucket; the 8 MiB read in >=4M.
	if s.SizeHist[1] != 2 || s.SizeHist[4] != 1 {
		t.Fatalf("hist: %v", s.SizeHist)
	}
}

// TestRecorderZeroAlloc pins the recorder's steady-state record path at
// zero allocations once capacity is reserved.
func TestRecorderZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	rec := trace.NewRecorder(e)
	const n = 1000
	rec.Reserve(n + 10)
	i := 0
	allocs := testing.AllocsPerRun(n, func() {
		idx := rec.BeginRequest(trace.Record{Time: sim.Time(i), Bytes: 1 << 20, Op: pfs.OpWrite})
		rec.EndRequest(idx)
		i++
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %.1f/op, want 0", allocs)
	}
}

func TestValidateErrors(t *testing.T) {
	good := trace.Trace{Header: trace.Header{Cfg: testCfg(),
		Apps: []trace.AppInfo{{Name: "A", Procs: 2, PPN: 2}}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	// header returns good's header with one edit applied to a copy.
	header := func(edit func(*trace.Header)) trace.Header {
		h := trace.Header{Cfg: good.Header.Cfg,
			Apps: append([]trace.AppInfo(nil), good.Header.Apps...)}
		edit(&h)
		return h
	}
	cases := []trace.Trace{
		{},
		{Header: header(func(h *trace.Header) { h.Apps[0].Procs = 0 })},
		{Header: good.Header, Records: []trace.Record{{App: 1}}},
		{Header: good.Header, Records: []trace.Record{{App: 0, Rank: 5}}},
		// The header's platform must validate and hold every app.
		{Header: header(func(h *trace.Header) { h.Cfg.Servers = 0 })},
		{Header: header(func(h *trace.Header) { h.Apps[0].TargetServers = []int{99} })},
		{Header: header(func(h *trace.Header) { h.Apps[0].TargetServers = []int{-1} })},
		{Header: header(func(h *trace.Header) { h.Apps[0].FirstNode = 4 })},
		{Header: header(func(h *trace.Header) { h.Apps[0].FirstNode = -1 })},
		// Every platform knob the build trusts must be in range.
		{Header: header(func(h *trace.Header) { h.Cfg.Srv.QoS.Kind = 9 })},
		{Header: header(func(h *trace.Header) { h.Cfg.Srv.QoS.FlowSlots = -1 })},
		{Header: header(func(h *trace.Header) { h.Cfg.Srv.FlowBufSize = 0 })},
		{Header: header(func(h *trace.Header) { h.Cfg.Srv.FlowBufSize = -1 })},
		{Header: header(func(h *trace.Header) { h.Cfg.Net.MSS = 0 })},
		{Header: header(func(h *trace.Header) { h.Cfg.Backend = 9 })},
		{Header: header(func(h *trace.Header) { h.Cfg.Sync = 9 })},
	}
	// Every record field the replay trusts must be in range.
	maxT := sim.Seconds(sim.MaxSeconds)
	for _, r := range []trace.Record{
		{Op: pfs.OpBarrier + 1},
		{Op: 9},
		{Off: -4096, Bytes: 4096},
		{Bytes: -4096},
		{Bytes: 2<<30 + 1},
		{Bytes: 1 << 50},
		{Off: math.MaxInt64 - 100, Bytes: 4096},
		{Time: -5},
		{Time: maxT + 1},
		{Time: 1 << 62},
		{Latency: -1},
		{Latency: maxT + 1},
	} {
		cases = append(cases, trace.Trace{Header: good.Header, Records: []trace.Record{r}})
	}
	// Records must be in issue order; equal times are fine.
	cases = append(cases, trace.Trace{Header: good.Header,
		Records: []trace.Record{{Time: 5}, {Time: 5}, {Time: 4}}})
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	// The bounds themselves are valid, and so is a barrier record.
	edge := good
	edge.Records = []trace.Record{
		{Bytes: 2 << 30},
		{Time: maxT, Latency: maxT, Off: math.MaxInt64 - 4096, Bytes: 4096, Op: pfs.OpRead},
		{Time: maxT, Server: -1, Op: pfs.OpBarrier},
	}
	if err := edge.Validate(); err != nil {
		t.Fatal(err)
	}
}
