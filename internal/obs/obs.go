// Package obs is the deterministic sim-time observability layer: a
// periodic sampler that snapshots the always-on probe counters
// (qos.Telemetry, qos.Availability, storage.Stats, netsim host stats)
// into fixed-capacity per-application × per-server time series, plus the
// span breakdown that splits each request share's latency at one server
// into its network / queue-wait / service stages, totalled per
// application by each server's qos.Telemetry once Attach turns span
// counting on.
//
// Determinism contract: every sample is an ordinary engine event
// pre-scheduled at attach time on the engine that owns the sampled state —
// server probes on the owning server's shard, client probes on shard 0 —
// so a sharded run samples bit-for-bit what the serial oracle samples (the
// same argument as fault.Schedule). Sampling is read-only: a probe event
// schedules nothing and mutates no simulation state, so a run with
// sampling attached produces byte-identical results to one without.
//
// Allocation contract: all series storage and the per-application span
// totals are sized at attach time; the per-tick probe and the per-span
// count are zero allocations (pinned by AllocsPerRun tests and by
// BenchmarkSamplerTick / BenchmarkSpanRecord). No span is stored: each is
// added to its application's totals as its share replies.
package obs

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/pfs"
	"repro/internal/qos"
	"repro/internal/sim"
)

// Config sizes an observability attachment. The zero value is invalid;
// use DefaultConfig for sensible full-run settings.
type Config struct {
	// Interval is the sampling period on the simulated clock.
	Interval sim.Time
	// Samples is the number of probe ticks scheduled per engine — the
	// fixed capacity of every time series. The observation horizon is
	// Samples × Interval; activity beyond it is simply not sampled (the
	// simulation itself is unaffected). Export trims trailing idle ticks.
	Samples int
	// SpanCap is how many spans each server adds to its per-application
	// totals; further spans are counted as dropped. 0 disables span
	// collection entirely.
	SpanCap int
}

// DefaultConfig samples every 100 ms for up to a minute of simulated time
// and counts up to 64 Ki spans per server.
func DefaultConfig() Config {
	return Config{Interval: 100 * sim.Millisecond, Samples: 600, SpanCap: 1 << 16}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Interval <= 0:
		return fmt.Errorf("obs: Interval must be positive")
	case c.Samples <= 0:
		return fmt.Errorf("obs: Samples must be positive")
	case c.SpanCap < 0:
		return fmt.Errorf("obs: SpanCap must be >= 0")
	}
	return nil
}

// AppPoint is one tick's snapshot of one application's counters at one
// server, qos.AppStats stored whole (cumulative where its fields are,
// gauges otherwise).
type AppPoint = qos.AppStats

// ServerPoint is one tick's snapshot of one server's device, NIC and
// availability counters.
type ServerPoint struct {
	DevQueuedBytes int64
	DevOps         int64
	DevBytes       int64
	DevSeeks       int64
	DevBusy        sim.Time
	PortDrops      int64
	DiscardedBytes int64
}

// ClientPoint is one tick's snapshot of one application's client-side
// availability counters (all zero without a fault plan).
type ClientPoint struct {
	Retries  int64
	Timeouts int64
	Failures int64
}

// serverSampler owns one server's series storage and implements
// sim.Target: its probe events are pre-scheduled on the server's own
// engine at attach time (op 0, a = tick index).
type serverSampler struct {
	srv   *pfs.Server
	nApps int
	app   []AppPoint    // tick-major: [tick][app]
	pts   []ServerPoint // [tick]
}

// OnEvent implements sim.Target: record tick a. Read-only and
// allocation-free — every snapshot source returns by value.
func (sm *serverSampler) OnEvent(op uint32, a, b int64) {
	k := int(a) % len(sm.pts) // fixed capacity; attach schedules exactly len(pts) ticks
	tel := sm.srv.Tel
	base := k * sm.nApps
	for i := 0; i < sm.nApps; i++ {
		sm.app[base+i] = tel.App(i)
	}
	ds := sm.srv.Dev.Stats()
	av := tel.Avail(sm.srv.E.Now())
	sm.pts[k] = ServerPoint{
		DevQueuedBytes: sm.srv.Dev.QueuedBytes(),
		DevOps:         ds.Ops,
		DevBytes:       ds.Bytes,
		DevSeeks:       ds.Seeks,
		DevBusy:        ds.Busy,
		PortDrops:      sm.srv.Host.Stats().PortDrops,
		DiscardedBytes: av.DiscardedBytes,
	}
}

// clientSampler owns the client-side series (shard 0).
type clientSampler struct {
	fs    *pfs.FileSystem
	nApps int
	pts   []ClientPoint // tick-major: [tick][app]
}

func (cm *clientSampler) OnEvent(op uint32, a, b int64) {
	k := int(a) % (len(cm.pts) / cm.nApps)
	base := k * cm.nApps
	for i := 0; i < cm.nApps; i++ {
		ca := cm.fs.ClientAvailFor(i)
		cm.pts[base+i] = ClientPoint{
			Retries: ca.Retries, Timeouts: ca.Timeouts, Failures: ca.Failures,
		}
	}
}

// Collector is one attached observability layer: per-server samplers plus
// the client-side sampler. Read its Timeline after the run completes.
type Collector struct {
	cfg    Config
	nApps  int
	capBps float64

	samplers []*serverSampler
	client   *clientSampler
}

// Attach wires an observability layer into a freshly prepared platform:
// it allocates all series storage, turns span counting on in every
// server's telemetry (unless SpanCap is 0), and pre-schedules Samples
// probe ticks per engine — tick k fires at (k+1)×Interval on the engine
// owning the probed state, which is what makes sharded runs sample
// bit-for-bit what the serial oracle samples.
// Call between Prepare and Run; panics on an invalid config.
func Attach(pl *cluster.Platform, nApps int, cfg Config) *Collector {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if nApps < 1 {
		nApps = 1
	}
	c := &Collector{cfg: cfg, nApps: nApps, capBps: cluster.NominalBW(pl.Cfg)}
	for _, srv := range pl.Servers {
		sm := &serverSampler{
			srv:   srv,
			nApps: nApps,
			app:   make([]AppPoint, cfg.Samples*nApps),
			pts:   make([]ServerPoint, cfg.Samples),
		}
		c.samplers = append(c.samplers, sm)
		for k := 0; k < cfg.Samples; k++ {
			srv.E.AtCall(sim.Time(k+1)*cfg.Interval, sm, 0, int64(k), 0)
		}
		if cfg.SpanCap > 0 {
			srv.Tel.CountSpans(nApps, cfg.SpanCap)
		}
	}
	c.client = &clientSampler{
		fs:    pl.FS,
		nApps: nApps,
		pts:   make([]ClientPoint, cfg.Samples*nApps),
	}
	for k := 0; k < cfg.Samples; k++ {
		pl.E.AtCall(sim.Time(k+1)*cfg.Interval, c.client, 0, int64(k), 0)
	}
	return c
}

// ServerTick records one probe sample for server i at tick k — the exact
// code path the scheduled probe events run (exposed for benchmarks and
// allocation tests).
func (c *Collector) ServerTick(i, k int) { c.samplers[i].OnEvent(0, int64(k), 0) }
