package repro

// Observability-layer benchmarks: the two hot paths an observed run adds.
// Both are contractually allocation-free (pinned at 0 allocs/op by
// internal/obs tests); the ns/op here tracks their raw cost so sampling
// stays negligible against the event kernel's own work — a probe tick
// snapshots every per-app counter on one server, a span record is one
// budget check plus a few counter updates in a server's telemetry.

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
)

// benchCollector attaches a collector to a small idle platform; the hot
// paths are driven directly, no simulation runs.
func benchCollector() (*cluster.Platform, *obs.Collector) {
	cfg := cluster.Default()
	cfg.ComputeNodes = 2
	cfg.CoresPerNode = 2
	cfg.Servers = 2
	pl := cluster.Build(cfg)
	return pl, obs.Attach(pl, 2, obs.Config{
		Interval: 10 * sim.Millisecond, Samples: 64, SpanCap: 1 << 12,
	})
}

// BenchmarkSamplerTick measures one probe event: snapshotting every
// per-app telemetry row plus the device and availability counters of one
// server into the fixed-capacity series.
func BenchmarkSamplerTick(b *testing.B) {
	_, col := benchCollector()
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
	pl, _ := benchCollector()
	tel := pl.Servers[0].Tel
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tel.Span(1, 1<<20, false, 1, 2, 3, 4)
	}
}
