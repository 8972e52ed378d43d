package qos

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
)

func req(app int, issued sim.Time, bytes int64) Request {
	return Request{App: app, Issued: issued, Bytes: bytes}
}

func TestParseKind(t *testing.T) {
	cases := map[string]Kind{
		"off": Off, "": Off, "fifo": Off,
		"fairshare": FairShare, "drr": FairShare,
		"tokenbucket": TokenBucket, "token-bucket": TokenBucket,
		"controller": Controller, "pid": Controller,
	}
	for s, want := range cases {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseKind("bogus"); err == nil || !strings.Contains(err.Error(), "fairshare") {
		t.Fatalf("unknown kind error should list the valid set, got %v", err)
	}
	for _, k := range []Kind{Off, FairShare, TokenBucket, Controller} {
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Fatalf("round-trip of %v failed", k)
		}
	}
	// The coordinated orders are reached by Kind only: specs, -qos and the
	// what-if service accept the four mitigation-axis names.
	for _, k := range []Kind{AppOrdered, RoundRobin} {
		if _, err := ParseKind(k.String()); err == nil {
			t.Fatalf("ParseKind(%q) accepted a kind without a name", k)
		}
	}
	if got := strings.Join(KindNames(), ","); got != "off,fairshare,tokenbucket,controller" {
		t.Fatalf("KindNames() = %s", got)
	}
}

func TestParamsValidateAndDefaults(t *testing.T) {
	for _, k := range []Kind{Off, FairShare, TokenBucket, Controller, AppOrdered, RoundRobin} {
		p := Defaults(k)
		if err := p.Validate(); err != nil {
			t.Fatalf("Defaults(%v) invalid: %v", k, err)
		}
		if p != p.WithDefaults() {
			t.Fatalf("Defaults(%v) not a fixed point of WithDefaults", k)
		}
	}
	bad := []Params{
		{Kind: Kind(99)},
		{Kind: RoundRobin + 1},
		{FlowSlots: -1},
		{InflightChunks: -1},
		{QuantumBytes: -1},
		{RateBytesPerSec: -1},
		{BurstBytes: -1},
		{Tick: -1},
		{TargetUtil: 1.5},
		{ShareCap: -0.1},
		{FloorBytesPerSec: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad params %d passed validation", i)
		}
	}
	// A partial override keeps the other defaults.
	p := Params{Kind: FairShare, InflightChunks: 2}.WithDefaults()
	if p.InflightChunks != 2 || p.QuantumBytes != Defaults(FairShare).QuantumBytes {
		t.Fatalf("WithDefaults merged wrong: %+v", p)
	}
}

// TestLegacyFIFO: oldest issued wins; queue order breaks ties.
func TestLegacyFIFO(t *testing.T) {
	s := New(nil, Params{}, nil)
	q := []Request{req(1, 30, 1), req(0, 10, 1), req(2, 10, 1)}
	if idx, wake := s.Pick(100, q); idx != 1 || wake != 0 {
		t.Fatalf("Pick = %d, %v; want 1, 0", idx, wake)
	}
}

// TestLegacyAppOrdered: lowest application first, issue order within it.
func TestLegacyAppOrdered(t *testing.T) {
	s := New(nil, Params{Kind: AppOrdered}, nil)
	q := []Request{req(2, 1, 1), req(0, 50, 1), req(0, 40, 1), req(1, 2, 1)}
	if idx, _ := s.Pick(100, q); idx != 2 {
		t.Fatalf("Pick = %d, want 2 (app 0, earliest issue)", idx)
	}
}

// TestLegacyRoundRobin: avoids the application granted last; falls back to
// FIFO when only that application has queued work.
func TestLegacyRoundRobin(t *testing.T) {
	s := New(nil, Params{Kind: RoundRobin}, nil)
	// Fresh scheduler: last = 0, so app 1 is preferred over app 0.
	q := []Request{req(0, 1, 1), req(1, 5, 1)}
	if idx, _ := s.Pick(10, q); idx != 1 {
		t.Fatalf("first Pick = %d, want 1 (alternate away from app 0)", idx)
	}
	// Now last = 1: app 0 preferred.
	if idx, _ := s.Pick(10, q); idx != 0 {
		t.Fatalf("second Pick = %d, want 0", idx)
	}
	// Only the last-granted application queued: FIFO fallback.
	q = []Request{req(0, 7, 1), req(0, 3, 1)}
	if idx, _ := s.Pick(10, q); idx != 1 {
		t.Fatalf("fallback Pick = %d, want 1 (oldest)", idx)
	}
}

// TestFairShareByteFairness: with a large-request and a small-request
// application queued, consecutive grants alternate so that granted bytes
// stay roughly proportional — the small application is not starved behind
// the big one's request count, and the big one is not starved behind the
// small one's.
func TestFairShareByteFairness(t *testing.T) {
	tel := NewTelemetry(nil)
	s := New(nil, Params{Kind: FairShare, QuantumBytes: 256 << 10}, tel).(*fairShare)
	grantedBytes := [2]int64{}
	// Application 0 queues 1 MiB requests, application 1 queues 64 KiB
	// requests; both queues stay topped up.
	for i := 0; i < 64; i++ {
		q := []Request{
			req(0, sim.Time(i), 1<<20), req(0, sim.Time(i)+1, 1<<20),
			req(1, sim.Time(i), 64<<10), req(1, sim.Time(i)+1, 64<<10),
		}
		idx, wake := s.Pick(sim.Time(i), q)
		if wake != 0 {
			t.Fatalf("FairShare must never idle the slot (wake %v)", wake)
		}
		grantedBytes[q[idx].App] += q[idx].Bytes
	}
	ratio := float64(grantedBytes[0]) / float64(grantedBytes[1])
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("byte split %v not byte-fair (ratio %.2f)", grantedBytes, ratio)
	}
}

// TestFairShareIdleForfeitsDeficit: an application that drains its queue
// loses its accumulated credit — rejoining does not grant it a burst.
func TestFairShareIdleForfeitsDeficit(t *testing.T) {
	tel := NewTelemetry(nil)
	s := New(nil, Params{Kind: FairShare}, tel).(*fairShare)
	// App 1 queued alone for a while: its deficit would grow unboundedly if
	// idle app 0 accrued credit too.
	for i := 0; i < 16; i++ {
		q := []Request{req(1, sim.Time(i), 64<<10)}
		if idx, _ := s.Pick(sim.Time(i), q); idx != 0 {
			t.Fatalf("sole queued request not granted")
		}
	}
	if s.deficit[0] != 0 {
		t.Fatalf("idle application kept deficit %d", s.deficit[0])
	}
}

func TestFairShareAppDepth(t *testing.T) {
	tel := NewTelemetry(nil)
	s := New(nil, Params{Kind: FairShare, InflightChunks: 4}, tel).(*fairShare)
	// One application with demand: unclamped.
	tel.Arrive(0, 1<<20)
	if d := s.AppDepth(0); d != 0 {
		t.Fatalf("solo application clamped to %d", d)
	}
	// Two applications with demand: both clamped to the budget.
	tel.Arrive(1, 64<<10)
	if d := s.AppDepth(0); d != 4 {
		t.Fatalf("contended budget = %d, want 4", d)
	}
	tel.Grant(1, 64<<10)
	tel.Finish(1)
	if d := s.AppDepth(0); d != 0 {
		t.Fatalf("clamp kept after contention ended: %d", d)
	}
}

// TestTokenBucketThrottles: admission stops once the bucket is spent and
// resumes at the returned wake time.
func TestTokenBucketThrottles(t *testing.T) {
	p := Params{Kind: TokenBucket, RateBytesPerSec: 1e6, BurstBytes: 1 << 20}
	s := New(nil, p, nil)
	q := []Request{req(0, 0, 1<<20), req(0, 1, 1<<20)}
	idx, wake := s.Pick(0, q)
	if idx != 0 || wake != 0 {
		t.Fatalf("full bucket must admit: %d, %v", idx, wake)
	}
	// Bucket now empty: the second request must wait ~1 s (1 MiB at 1 MB/s).
	idx, wake = s.Pick(0, q[1:])
	if idx >= 0 {
		t.Fatalf("empty bucket admitted a request")
	}
	if wake < sim.Seconds(1.0) || wake > sim.Seconds(1.2) {
		t.Fatalf("wake = %v, want ~1.05s", wake)
	}
	// At the wake time the bucket covers the request again.
	if idx, _ = s.Pick(wake, q[1:]); idx != 0 {
		t.Fatalf("request not admitted at its own wake time")
	}
}

// TestTokenBucketPerAppIsolation: one application's debt does not block
// another's admission.
func TestTokenBucketPerAppIsolation(t *testing.T) {
	p := Params{Kind: TokenBucket, RateBytesPerSec: 1e6, BurstBytes: 1 << 20}
	s := New(nil, p, nil)
	// App 0 spends its bucket.
	if idx, _ := s.Pick(0, []Request{req(0, 0, 1<<20)}); idx != 0 {
		t.Fatal("seed grant failed")
	}
	// App 1 is fresh and must be admitted even while app 0 waits.
	q := []Request{req(0, 0, 1<<20), req(1, 5, 64<<10)}
	if idx, _ := s.Pick(0, q); idx != 1 {
		t.Fatalf("fresh application not admitted, idx %d", idx)
	}
}

// TestTokenBucketOversizedRequest: a request larger than the burst is
// still admitted from a full bucket (cost capped at the burst, full size
// charged as debt).
func TestTokenBucketOversizedRequest(t *testing.T) {
	p := Params{Kind: TokenBucket, RateBytesPerSec: 1e6, BurstBytes: 64 << 10}
	s := New(nil, p, nil).(*tokenBucket)
	if idx, _ := s.Pick(0, []Request{req(0, 0, 1<<20)}); idx != 0 {
		t.Fatal("oversized request never admissible")
	}
	if s.b.tokens[0] >= 0 {
		t.Fatalf("full size not charged: tokens %v", s.b.tokens[0])
	}
}

// telemetryRoundTrip drives one request's lifecycle through the probe.
func TestTelemetryAccounting(t *testing.T) {
	tel := NewTelemetry(nil)
	tel.Arrive(2, 1<<20)
	if tel.Queued() != 1 || tel.App(2).QueuedBytes != 1<<20 || tel.Apps() != 3 {
		t.Fatalf("arrive accounting wrong: %+v", tel.App(2))
	}
	tel.Grant(2, 1<<20)
	if tel.Queued() != 0 || tel.Active() != 1 || tel.App(2).QueuedBytes != 0 || tel.App(2).Active != 1 {
		t.Fatalf("grant accounting wrong: %+v", tel.App(2))
	}
	tel.Consume(2, 256<<10)
	tel.Consume(2, 256<<10)
	if st := tel.App(2); st.InFlight != 2 || st.BytesIn != 512<<10 {
		t.Fatalf("consume accounting wrong: %+v", st)
	}
	tel.Done(2, 256<<10)
	if st := tel.App(2); st.InFlight != 1 || st.BytesDone != 256<<10 {
		t.Fatalf("done accounting wrong: %+v", st)
	}
	tel.Done(2, 256<<10)
	tel.Finish(2)
	if tel.Active() != 0 || tel.App(2).Demand() {
		t.Fatalf("finish accounting wrong: %+v", tel.App(2))
	}
	if tel.DemandApps() != 0 {
		t.Fatalf("DemandApps = %d after drain", tel.DemandApps())
	}
	// Out-of-range reads are zero-valued, not panics.
	if tel.App(99) != (AppStats{}) || tel.App(-1) != (AppStats{}) {
		t.Fatal("out-of-range App not zero")
	}
	// Nil device probe reports zero.
	if tel.DeviceBusy() != 0 || tel.DeviceQueuedBytes() != 0 {
		t.Fatal("nil device probe not zero")
	}
}

// fakeDev is a scriptable DeviceProbe for controller tests.
type fakeDev struct {
	busy   sim.Time
	queued int64
}

func (f *fakeDev) QueuedBytes() int64   { return f.queued }
func (f *fakeDev) Stats() storage.Stats { return storage.Stats{Busy: f.busy} }

// TestControllerThrottlesAggressor: under sustained congestion with a
// dominant application, the controller halves that application's rate and
// budget each tick and recovers them once the congestion clears.
func TestControllerThrottlesAggressor(t *testing.T) {
	e := sim.NewEngine()
	dev := &fakeDev{}
	tel := NewTelemetry(dev)
	p := Params{Kind: Controller}.WithDefaults()
	c := New(e, p, tel).(*controller)

	// Two applications with demand; app 0 completes 10x the bytes.
	tel.Arrive(0, 8<<20)
	tel.Arrive(1, 64<<10)
	tick := p.Tick
	for i := 0; i < 4; i++ {
		tel.Done(0, 4<<20)
		tel.Done(1, 64<<10)
		dev.busy += tick // fully utilized interval
		c.OnEvent(0, 0, 0)
	}
	if c.b.rate[0] >= p.RateBytesPerSec {
		t.Fatalf("aggressor rate not cut: %v", c.b.rate[0])
	}
	if c.budget[0] >= p.InflightChunks {
		t.Fatalf("aggressor budget not cut: %v", c.budget[0])
	}
	if c.b.rate[1] != p.RateBytesPerSec || c.budget[1] != p.InflightChunks {
		t.Fatalf("victim throttled: rate %v budget %d", c.b.rate[1], c.budget[1])
	}
	if c.AppDepth(0) != c.budget[0] || c.AppDepth(99) != 0 {
		t.Fatal("AppDepth does not expose the feedback budgets")
	}

	// Congestion clears (device idle): everything recovers toward the caps.
	cutRate, cutBudget := c.b.rate[0], c.budget[0]
	for i := 0; i < 64; i++ {
		c.OnEvent(0, 0, 0)
	}
	if c.b.rate[0] <= cutRate || c.budget[0] <= cutBudget {
		t.Fatalf("no recovery: rate %v budget %d", c.b.rate[0], c.budget[0])
	}
	if c.b.rate[0] != p.RateBytesPerSec || c.budget[0] != p.InflightChunks {
		t.Fatalf("recovery did not reach the caps: rate %v budget %d", c.b.rate[0], c.budget[0])
	}
}

// TestControllerTickDisarmsWhenIdle: the feedback tick stops rescheduling
// itself once the server has no queued or active requests, so simulations
// terminate.
func TestControllerTickDisarmsWhenIdle(t *testing.T) {
	e := sim.NewEngine()
	tel := NewTelemetry(&fakeDev{})
	c := New(e, Params{Kind: Controller}, tel).(*controller)
	tel.Arrive(0, 1<<20)
	if idx, _ := c.Pick(0, []Request{req(0, 0, 1<<20)}); idx != 0 {
		t.Fatal("grant failed")
	}
	if !c.ticking || e.Pending() == 0 {
		t.Fatal("tick not armed by Pick")
	}
	// Drain the request; the pending tick must fire once and disarm.
	tel.Grant(0, 1<<20)
	tel.Finish(0)
	e.Run()
	if c.ticking || e.Pending() != 0 {
		t.Fatalf("tick still armed after idle: ticking=%v pending=%d", c.ticking, e.Pending())
	}
}

// TestSchedulersSteadyStateZeroAlloc: Pick allocates nothing once per-app
// state exists — the event-kernel discipline (PR 2) extended to the QoS
// layer.
func TestSchedulersSteadyStateZeroAlloc(t *testing.T) {
	tel := NewTelemetry(nil)
	tel.Arrive(0, 1<<20)
	tel.Arrive(1, 1<<20)
	schedulers := map[string]Scheduler{
		"fifo":        New(nil, Params{}, nil),
		"apporder":    New(nil, Params{Kind: AppOrdered}, nil),
		"roundrobin":  New(nil, Params{Kind: RoundRobin}, nil),
		"fairshare":   New(nil, Params{Kind: FairShare}, tel),
		"tokenbucket": New(nil, Params{Kind: TokenBucket}, nil),
	}
	q := []Request{req(0, 0, 256<<10), req(1, 1, 256<<10), req(0, 2, 256<<10)}
	for name, s := range schedulers {
		s.Pick(0, q) // warm up per-application state
		now := sim.Time(1)
		if n := testing.AllocsPerRun(100, func() {
			s.Pick(now, q)
			now++
		}); n > 0 {
			t.Errorf("%s: Pick allocates %.1f per call", name, n)
		}
	}
}
