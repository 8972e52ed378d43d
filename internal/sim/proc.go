package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: an ordinary Go function run as an iter.Pull
// coroutine, so control passes between the engine's event loop and at most
// one Proc at a time, and each pass is one coroutine switch on the calling
// thread with no trip through the Go scheduler. Proc bodies may therefore
// read and write shared simulation state without synchronization, and the
// simulation stays deterministic.
//
// Procs block with Sleep, Await (Signal), Gate.Wait and Semaphore.Acquire.
// All blocking operations must be called from the Proc's own body.
type Proc struct {
	eng   *Engine
	name  string
	body  func(*Proc)
	next  func() (struct{}, bool) // resumes the body; nil until it starts
	yield func(struct{}) bool     // parks the body; set when it starts
}

// Spawn creates a process and schedules it to start at the current time.
// The body runs with coroutine semantics: it executes exclusively until it
// blocks or returns. The coroutine, and the goroutine under it, is created
// by the first handoff, so an engine that is dropped without running
// starts no goroutine.
//
// A panic in the body reaches the caller of Run (or RunUntil, or Step) on
// the engine's goroutine, naming the proc. A body that calls
// runtime.Goexit ends that caller's goroutine too, the way iter.Pull
// propagates it.
func (e *Engine) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, body: body}
	e.spawned++
	e.scheduleProc(0, p)
	return p
}

// run is the proc's coroutine. iter.Pull re-raises a panic of the body
// from next, on the engine's goroutine; run only names the proc in it.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		if v := recover(); v != nil {
			panic(fmt.Sprintf("sim: proc %q panicked: %v", p.name, v))
		}
	}()
	p.body(p)
	p.eng.finished++
}

// SpawnAt is Spawn with a start delay.
func (e *Engine) SpawnAt(d Time, name string, body func(*Proc)) {
	e.Schedule(d, func() { e.Spawn(name, body) })
}

// handoff gives control to p and returns when p parks or exits; the first
// handoff starts p. It must only be called from the engine's execution
// context (inside an event callback); that invariant is what serializes
// the simulation.
func (e *Engine) handoff(p *Proc) {
	if p.next == nil {
		p.next, _ = iter.Pull(p.run)
	}
	p.next()
}

// park suspends the calling proc until the next handoff to it.
func (p *Proc) park() {
	p.eng.parked++
	p.yield(struct{}{})
	p.eng.parked--
}

// wake schedules a handoff to p at the current time (FIFO among equal-time
// events). It is the only way parked procs resume. The handoff rides the
// event's *Proc union arm, so waking allocates nothing.
func (p *Proc) wake() {
	p.eng.scheduleProc(0, p)
}

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep suspends the process for d simulated time. Even a zero-length sleep
// yields, preserving FIFO fairness among same-time events. Like wake, the
// resume event is closure-free.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.eng.scheduleProc(d, p)
	p.park()
}

// Yield gives other same-time events a chance to run before continuing.
func (p *Proc) Yield() { p.Sleep(0) }

// waitq is a FIFO of parked procs backed by a power-of-two ring buffer:
// push and pop are O(1) with no copying, unlike the copy-shift dequeues a
// plain slice needs. The buffer grows geometrically and is retained across
// fill/drain cycles, so a waiter queue in steady state allocates nothing.
type waitq struct {
	buf  []*Proc // len is 0 or a power of two
	head int
	n    int
}

// push appends p to the tail.
func (q *waitq) push(p *Proc) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
}

// pop removes and returns the head. The queue must not be empty.
func (q *waitq) pop() *Proc {
	p := q.buf[q.head]
	q.buf[q.head] = nil // release the reference; the proc may be long-lived
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return p
}

// len returns the number of queued procs.
func (q *waitq) len() int { return q.n }

// grow doubles the ring, unwrapping it to the front of the new buffer.
func (q *waitq) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	nb := make([]*Proc, size)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = nb, 0
}

// A Signal is a one-shot broadcast: procs Await it, and once Fired all
// current and future waiters proceed immediately. The zero value is usable.
type Signal struct {
	fired   bool
	waiters waitq
}

// Fire releases all waiters. Waiters resume as separate events at the
// current time, in Await order. Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for s.waiters.len() > 0 {
		s.waiters.pop().wake()
	}
}

// Await blocks the proc until the signal fires (returns immediately if it
// already has).
func (p *Proc) Await(s *Signal) {
	if s.fired {
		return
	}
	s.waiters.push(p)
	p.park()
}

// A Gate is a countdown latch: it opens when its count reaches zero.
// Use Add to raise the count and Done to lower it.
type Gate struct {
	n      int
	opened Signal
}

// NewGate returns a gate that opens after n calls to Done.
func NewGate(n int) *Gate {
	g := &Gate{n: n}
	return g
}

// Add raises the count by delta. Adding to an already-open gate panics.
func (g *Gate) Add(delta int) {
	if g.opened.fired {
		panic("sim: Add on opened Gate")
	}
	g.n += delta
}

// Done lowers the count; when it reaches zero the gate opens.
func (g *Gate) Done() {
	g.n--
	if g.n < 0 {
		panic("sim: Gate count below zero")
	}
	if g.n == 0 {
		g.opened.Fire()
	}
}

// Wait blocks until the gate opens.
func (g *Gate) Wait(p *Proc) { p.Await(&g.opened) }

// Opened reports whether the gate has opened.
func (g *Gate) Opened() bool { return g.opened.fired }

// A Semaphore holds counted tokens with FIFO waiters. It is the standard
// bound on in-flight operations (e.g. per-process outstanding I/O requests).
type Semaphore struct {
	avail   int
	waiters waitq
}

// NewSemaphore returns a semaphore with n available tokens.
func NewSemaphore(n int) *Semaphore { return &Semaphore{avail: n} }

// Acquire takes a token, blocking FIFO if none is available.
func (s *Semaphore) Acquire(p *Proc) {
	if s.avail > 0 && s.waiters.len() == 0 {
		s.avail--
		return
	}
	s.waiters.push(p)
	p.park()
	// The token was passed to us directly by Release; nothing to decrement.
}

// TryAcquire takes a token without blocking and reports success.
func (s *Semaphore) TryAcquire() bool {
	if s.avail > 0 && s.waiters.len() == 0 {
		s.avail--
		return true
	}
	return false
}

// Release returns a token, waking the oldest waiter if any. The token passes
// directly to the waiter (no barging). Dequeueing the waiter and scheduling
// its resume are both allocation-free O(1) operations.
func (s *Semaphore) Release() {
	if s.waiters.len() > 0 {
		s.waiters.pop().wake()
		return
	}
	s.avail++
}

// Available returns the number of free tokens.
func (s *Semaphore) Available() int { return s.avail }

// Waiting returns the number of blocked acquirers.
func (s *Semaphore) Waiting() int { return s.waiters.len() }
