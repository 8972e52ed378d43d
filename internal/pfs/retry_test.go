package pfs

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// TestRetryMachineryZeroAlloc pins the steady-state allocation contract of
// the retry layer: arming a deadline, delivering a stale timer, and taking
// the timeout -> backoff -> arm-resend transition allocate nothing. Timers
// are plain engine events carrying the attempt number (no closures, no
// cancellation bookkeeping), so a long run under a flaky server cannot
// accrete garbage proportional to its retry count. Attempt transmission
// (subOp.send) does allocate — a fresh wire request per attempt — which is
// per-resend, not per-timer-fire, and bounded by MaxRetries.
func TestRetryMachineryZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	fs := &FileSystem{E: e}
	fs.EnableRetry(fault.RetryPolicy{
		Deadline: sim.Millisecond, Backoff: sim.Millisecond,
		BackoffMax: 8 * sim.Millisecond, MaxRetries: 1 << 30, Budget: -1,
	})
	cl := &Client{fs: fs, App: 0}
	fs.growApp(0) // the per-app counters exist before steady state begins
	so := &subOp{cl: cl, backoff: fs.Retry.Backoff}

	// Warm the engine's event storage so heap growth settles.
	for i := 0; i < 64; i++ {
		e.AtCall(e.Now()+sim.Time(i+1), so, opResend, -1, 0) // stale: a != attempt
	}
	e.Run()

	allocs := testing.AllocsPerRun(200, func() {
		// One deadline expiry on the live attempt: counts the timeout,
		// takes a retry, arms the resend timer, doubles the backoff.
		e.AtCall(e.Now()+1, so, opDeadline, so.attempt, 0)
		// A stale timer from a superseded attempt fires alongside it.
		e.AtCall(e.Now()+2, so, opDeadline, so.attempt-1, 0)
		// Fire both deadlines; the armed resend (>= 1ms out) stays pending.
		e.RunUntil(e.Now() + 10)
		// Supersede the armed resend so it drains stale (a live resend
		// would transmit a fresh attempt, which allocates by design).
		so.attempt++
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("retry timer machinery allocates %.1f times per deadline cycle, want 0", allocs)
	}
	av := fs.ClientAvailFor(0)
	if av.Timeouts == 0 || av.Retries == 0 {
		t.Fatalf("steady-state loop never exercised the timeout path: %+v", av)
	}
}

// TestRetryPolicyDefaults pins WithDefaults: zero knobs pick the calibrated
// policy, explicit knobs survive, and Budget 0 means "default budget" (use
// a negative budget for unlimited).
func TestRetryPolicyDefaults(t *testing.T) {
	def := fault.DefaultRetryPolicy()
	got := (fault.RetryPolicy{}).WithDefaults()
	if got != def {
		t.Fatalf("zero policy = %+v, want the default %+v", got, def)
	}
	p := fault.RetryPolicy{Deadline: sim.Second, Budget: -1}.WithDefaults()
	if p.Deadline != sim.Second {
		t.Fatalf("explicit deadline overridden: %+v", p)
	}
	if p.Budget != -1 {
		t.Fatalf("unlimited budget overridden: %+v", p)
	}
	if p.Backoff != def.Backoff || p.MaxRetries != def.MaxRetries {
		t.Fatalf("unset knobs not defaulted: %+v", p)
	}
}

// TestRetryBudgetExhaustion: with a positive budget, retries stop when the
// application's budget runs dry, which fails the sub-request.
func TestRetryBudgetExhaustion(t *testing.T) {
	e := sim.NewEngine()
	fs := &FileSystem{E: e}
	fs.EnableRetry(fault.RetryPolicy{
		Deadline: sim.Millisecond, Backoff: sim.Millisecond,
		BackoffMax: sim.Millisecond, MaxRetries: 100, Budget: 3,
	})
	cl := &Client{fs: fs, App: 0}
	for i := 0; i < 5; i++ {
		if got, want := fs.takeRetry(0), i < 3; got != want {
			t.Fatalf("takeRetry #%d = %v, want %v", i, got, want)
		}
	}
	_ = cl
	av := fs.ClientAvailFor(0)
	if av.Retries != 3 {
		t.Fatalf("retries counted = %d, want 3 (the budget)", av.Retries)
	}
}

// TestCompletionRunsOnce pins that a request's completion runs exactly
// once, for blocking and asynchronous callers alike, under a retry policy
// whose deadline the loaded HDD servers miss: attempts time out and are
// resent, some requests run out of retries and stall, and the late replies
// of the abandoned attempts still arrive. A second completion of a
// blocking request would leave a token in its client's wait, so its next
// request would return before landing.
func TestCompletionRunsOnce(t *testing.T) {
	r := buildRig(2, 2, "hdd", SyncOn)
	r.fs.EnableRetry(fault.RetryPolicy{
		Deadline: 50 * sim.Millisecond, Backoff: sim.Millisecond, BackoffMax: 2 * sim.Millisecond,
		MaxRetries: 1, Budget: -1, Resume: 5 * sim.Millisecond,
	})
	f := r.fs.CreateFile("f", nil, 64<<10)
	const procs, reqs, size = 4, 6, 1 << 20
	var clients []*Client
	landed := 0
	for i := 0; i < procs; i++ {
		cl := r.fs.NewClient(r.cliHost[i%2], 0)
		clients = append(clients, cl)
		r.e.Spawn("rank", func(p *sim.Proc) {
			for k := 0; k < reqs; k++ {
				off := int64(i*reqs+k) * size
				if i%2 == 1 {
					cl.Read(p, f, off, size)
				} else {
					cl.Write(p, f, off, size)
				}
				landed++
			}
		})
	}
	async := r.fs.NewClient(r.cliHost[0], 1)
	done := make([]int, reqs)
	for k := range done {
		async.WriteAsync(f, int64(procs*reqs+k)*size, size, func() { done[k]++ })
	}
	r.e.RunUntil(60 * sim.Second)

	if landed != procs*reqs {
		t.Fatalf("%d of %d blocking requests returned", landed, procs*reqs)
	}
	for i, cl := range clients {
		if n := cl.done.Available(); n != 0 || cl.inflight != 0 {
			t.Fatalf("client %d: %d surplus completions, %d requests in flight", i, n, cl.inflight)
		}
	}
	for k, n := range done {
		if n != 1 {
			t.Fatalf("async request %d completed %d times", k, n)
		}
	}
	if blk, asy := r.fs.ClientAvailFor(0), r.fs.ClientAvailFor(1); blk.Failures == 0 || asy.Retries == 0 {
		t.Fatalf("no blocking request stalled (%+v) or no async attempt was abandoned (%+v)", blk, asy)
	}
}
