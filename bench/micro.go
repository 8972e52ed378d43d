package main

import (
	"time"

	"repro/bench/stats"
	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/storage"
)

// The micro-benchmarks time one layer's hot loop in isolation, the same
// loops the repository's go test benchmarks run, at a fixed operation
// count. Each reports the median ns per operation of microReps runs.
const microReps = 5

// nsPerOp runs body microReps times; body performs the work and returns
// how many operations it did.
func nsPerOp(body func() int) float64 {
	var xs []float64
	for i := 0; i < microReps; i++ {
		t0 := time.Now()
		n := body()
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return stats.Median(xs)
}

// microEngine is the kernel's Schedule/Run loop alone.
func microEngine() float64 {
	const n = 1 << 20
	return nsPerOp(func() int {
		e := sim.NewEngine()
		k := 0
		var tick func()
		tick = func() {
			k++
			if k < n {
				e.Schedule(sim.Microsecond, tick)
			}
		}
		e.Schedule(0, tick)
		e.Run()
		return n
	})
}

// microSegment is one connection moving 64 KiB messages, per segment sent.
func microSegment() float64 {
	const msgs = 2048
	return nsPerOp(func() int {
		e := sim.NewEngine()
		f := netsim.NewFabric(e, netsim.DefaultParams())
		c := f.Dial(f.NewHost("c", 1.25e9, 0), f.NewHost("s", 1.25e9, 0), 0)
		c.OnReadable = func(cc *netsim.Conn, m *netsim.Message) { cc.ReadHead() }
		for i := 0; i < msgs; i++ {
			c.Send(&netsim.Message{Size: 64 << 10})
		}
		e.Run()
		return int(c.Stats().SentSegs)
	})
}

// microDevice submits 256 KiB requests over four interleaved files to one
// backend device and drains it, per request.
func microDevice(backend cluster.BackendKind) float64 {
	const n = 4096
	cfg := cluster.Default()
	cfg.Backend = backend
	return nsPerOp(func() int {
		e := sim.NewEngine()
		d := cluster.NewDevice(e, cfg)
		for i := 0; i < n; i++ {
			d.Submit(&storage.Request{File: storage.FileID(i % 4), Offset: int64(i) * (256 << 10), Size: 256 << 10})
		}
		e.Run()
		return n
	})
}

// microFairShare is one deficit-round-robin grant decision over a
// 64-request queue from four applications.
func microFairShare() float64 {
	const n = 1 << 20
	tel := qos.NewTelemetry(nil)
	tel.Arrive(0, 1<<20)
	tel.Arrive(1, 1<<20)
	s := qos.New(nil, qos.Params{Kind: qos.FairShare}, tel)
	q := make([]qos.Request, 64)
	for i := range q {
		size := int64(64 << 10)
		if i%4 == 0 {
			size = 1 << 20
		}
		q[i] = qos.Request{App: i % 4, Issued: sim.Time(i), Bytes: size}
	}
	s.Pick(0, q)
	return nsPerOp(func() int {
		for i := 0; i < n; i++ {
			s.Pick(sim.Time(i), q)
		}
		return n
	})
}

// microSamplerTick is one observability probe tick on one server.
func microSamplerTick() float64 {
	const n = 1 << 20
	cfg := cluster.Default()
	cfg.ComputeNodes, cfg.CoresPerNode, cfg.Servers = 2, 2, 2
	col := obs.Attach(cluster.Build(cfg), 2, obs.Config{Interval: 10 * sim.Millisecond, Samples: 64, SpanCap: 1 << 12})
	return nsPerOp(func() int {
		for i := 0; i < n; i++ {
			col.ServerTick(0, i%64)
		}
		return n
	})
}
