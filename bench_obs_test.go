package repro

// Observability-layer benchmarks: the two hot paths the sampler adds to an
// observed run. Both are contractually allocation-free (pinned at 0
// allocs/op by internal/obs tests); the ns/op here tracks their raw cost
// so sampling stays negligible against the event kernel's own work — a
// probe tick snapshots every per-app counter on one server, a span record
// is one budget check plus a few counter updates.

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// benchCollector attaches a collector to a small idle platform; the hot
// paths are driven directly, no simulation runs.
func benchCollector() *obs.Collector {
	cfg := cluster.Default()
	cfg.ComputeNodes = 2
	cfg.CoresPerNode = 2
	cfg.Servers = 2
	return obs.Attach(cluster.Build(cfg), 2, obs.Config{
		Interval: 10 * sim.Millisecond, Samples: 64, SpanCap: 1 << 12,
	})
}

// BenchmarkSamplerTick measures one probe event: snapshotting every
// per-app telemetry row plus the device and availability counters of one
// server into the fixed-capacity series.
func BenchmarkSamplerTick(b *testing.B) {
	col := benchCollector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.ServerTick(0, i%64)
	}
}

// BenchmarkSpanRecord measures one request-span record (steady state: the
// server's SpanCap budget is spent, so this is the overflow/drop regime
// every long run settles into).
func BenchmarkSpanRecord(b *testing.B) {
	col := benchCollector()
	sink := col.Sink(0)
	sp := pfs.Span{Issue: 1, Arrive: 2, Grant: 3, Reply: 4, Bytes: 1 << 20, App: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.RecordSpan(sp)
	}
}
