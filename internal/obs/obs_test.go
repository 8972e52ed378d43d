package obs_test

// Unit tests for the observability layer. The allocation pins are the
// load-bearing ones: the per-tick probe and the per-span record path must
// stay at zero allocations, or sampling would perturb the very hot paths
// it is meant to watch. End-to-end sampling correctness (series content,
// shard conformance) is pinned by the scenario-level timeline golden.

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// tinyPlatform builds a 2-server, 2-node platform (nothing is run; the
// samplers are driven directly).
func tinyPlatform() *cluster.Platform {
	cfg := cluster.Default()
	cfg.ComputeNodes = 2
	cfg.CoresPerNode = 2
	cfg.Servers = 2
	return cluster.Build(cfg)
}

func testConfig() obs.Config {
	return obs.Config{Interval: 10 * sim.Millisecond, Samples: 16, SpanCap: 8}
}

func TestConfigValidate(t *testing.T) {
	cases := []obs.Config{
		{Interval: 0, Samples: 1},
		{Interval: sim.Second, Samples: 0},
		{Interval: sim.Second, Samples: 1, SpanCap: -1},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: config %+v validated", i, c)
		}
	}
	if err := obs.DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// TestSamplerTickZeroAlloc pins the probe path at 0 allocs/op.
func TestSamplerTickZeroAlloc(t *testing.T) {
	col := obs.Attach(tinyPlatform(), 2, testConfig())
	if n := testing.AllocsPerRun(200, func() { col.ServerTick(0, 5) }); n != 0 {
		t.Fatalf("sampler tick allocates %v per run, want 0", n)
	}
}

// TestSpanRecordZeroAlloc pins the span record path at 0 allocs/op (both
// the within-budget and the overflow/drop regime).
func TestSpanRecordZeroAlloc(t *testing.T) {
	col := obs.Attach(tinyPlatform(), 2, testConfig())
	sink := col.Sink(0)
	sp := pfs.Span{Issue: 1, Arrive: 2, Grant: 3, Reply: 4, Bytes: 64, App: 1}
	if n := testing.AllocsPerRun(200, func() { sink.RecordSpan(sp) }); n != 0 {
		t.Fatalf("span record allocates %v per run, want 0", n)
	}
}

// TestSpanAggregation drives known spans through a sink and checks the
// exported per-app stats, including drop accounting past SpanCap.
func TestSpanAggregation(t *testing.T) {
	pl := tinyPlatform()
	cfg := testConfig()
	col := obs.Attach(pl, 2, cfg)
	sink := col.Sink(1)
	ms := sim.Millisecond
	sink.RecordSpan(pfs.Span{Issue: 0, Arrive: 2 * ms, Grant: 5 * ms, Reply: 11 * ms, Bytes: 100, App: 0})
	sink.RecordSpan(pfs.Span{Issue: 10 * ms, Arrive: 11 * ms, Grant: 11 * ms, Reply: 14 * ms, Bytes: 50, App: 0, Read: true})
	sink.RecordSpan(pfs.Span{Issue: 0, Arrive: ms, Grant: ms, Reply: 2 * ms, Bytes: 7, App: 1})
	tl := col.Timeline([]string{"A", "B"})
	a := tl.Spans[0]
	if a.Count != 2 || a.Reads != 1 || a.Bytes != 150 {
		t.Fatalf("app A span counts: %+v", a)
	}
	if a.SumNet != 3*ms || a.SumQueue != 3*ms || a.SumService != 9*ms || a.SumTotal != 15*ms {
		t.Fatalf("app A span sums: %+v", a)
	}
	if a.SumNet+a.SumQueue+a.SumService != a.SumTotal {
		t.Fatalf("span stages do not sum to total: %+v", a)
	}
	if a.MaxTotal != 11*ms {
		t.Fatalf("app A MaxTotal = %v", a.MaxTotal)
	}
	if b := tl.Spans[1]; b.Count != 1 || b.Bytes != 7 {
		t.Fatalf("app B span counts: %+v", b)
	}

	// Overflow past SpanCap is counted, not aggregated.
	for i := 0; i < cfg.SpanCap+3; i++ {
		sink.RecordSpan(pfs.Span{Reply: ms, App: 0})
	}
	if got := col.Timeline([]string{"A", "B"}).SpansDropped; got != int64(3+3) {
		t.Fatalf("SpansDropped = %d, want 6", got)
	}
}

// TestAttachHoldsNoSpans pins that Attach reserves no per-span storage:
// DefaultConfig's 64 Ki-span budget once cost every server a 3.5 MiB
// buffer before it recorded a span, where an observed co-run records a few
// hundred per server.
func TestAttachHoldsNoSpans(t *testing.T) {
	pl := tinyPlatform()
	cfg := obs.DefaultConfig()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	obs.Attach(pl, 2, cfg)
	runtime.ReadMemStats(&m1)
	oneBuffer := uint64(cfg.SpanCap) * uint64(unsafe.Sizeof(pfs.Span{}))
	if got := m1.TotalAlloc - m0.TotalAlloc; got > oneBuffer/2 {
		t.Fatalf("Attach on 2 servers allocated %d bytes, want under half of one server's old span buffer (%d)", got, oneBuffer)
	}
}

// TestTimelineTrim pins idle-tick trimming: with no counter movement the
// export keeps a minimal prefix, not the whole horizon.
func TestTimelineTrim(t *testing.T) {
	col := obs.Attach(tinyPlatform(), 1, testConfig())
	tl := col.Timeline([]string{"A"})
	if tl.Ticks != 2 {
		t.Fatalf("idle timeline kept %d ticks, want 2", tl.Ticks)
	}
	if tl.Servers != 2 || len(tl.Apps) != 1 || tl.Apps[0] != "A" {
		t.Fatalf("timeline shape: %+v", tl)
	}
	if len(tl.PerApp) != tl.Ticks*tl.Servers*len(tl.Apps) ||
		len(tl.PerServer) != tl.Ticks*tl.Servers ||
		len(tl.Client) != tl.Ticks*len(tl.Apps) {
		t.Fatalf("series lengths inconsistent: %+v", tl)
	}
	if tl.CapacityBps <= 0 {
		t.Fatalf("CapacityBps = %v on an HDD platform", tl.CapacityBps)
	}
}

// TestSpansDisabled pins the off switch: SpanCap 0 installs no sinks and
// exports no span stats.
func TestSpansDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.SpanCap = 0
	pl := tinyPlatform()
	col := obs.Attach(pl, 1, cfg)
	if col.Sink(0) != nil {
		t.Fatal("SpanCap=0 still installed a sink")
	}
	for _, srv := range pl.Servers {
		if srv.Spans != nil {
			t.Fatal("SpanCap=0 still set Server.Spans")
		}
	}
	if tl := col.Timeline([]string{"A"}); tl.Spans != nil {
		t.Fatal("SpanCap=0 still exported span stats")
	}
}
