package sim

import "fmt"

// Target receives scheduled callbacks without a closure allocation. Layers
// whose per-event callback is a fixed method on a long-lived object (a
// connection handling its ACKs, a device completing its current request)
// implement Target once and pass op/a/b through the event instead of
// capturing them: scheduling then costs zero heap allocations. op
// discriminates between the object's event kinds; a and b are opaque
// payload words whose meaning is private to the implementation.
type Target interface {
	OnEvent(op uint32, a, b int64)
}

// event is one scheduled entry: a callback due at a simulated time. Events
// with equal times execute in (sched, psched, gsched, src, seq) order — the
// simulated time they were scheduled at, the same stamp one and two levels
// up the scheduling ancestry (the event executing when they were pushed,
// and its own pusher), the shard that scheduled them, then a monotonically
// increasing per-engine tiebreaker — which keeps simulations deterministic.
//
// On a single engine the whole prefix is non-decreasing in seq: the clock
// never runs backwards (sched); events sharing (at, sched) were pushed by
// parents that themselves executed in psched order at the instant sched;
// and the same argument applies once more for gsched. So the order reduces
// to the classic (at, seq) and the serial engine behaves exactly as it
// always has; the extra keys only discriminate when a ShardSet merges
// events produced by independently-clocked shards, where they reproduce the
// serial engine's scheduling order without a global counter: same due time
// → earlier-sent first (sched); same send time → sender whose own trigger
// was scheduled earlier first (psched, then gsched); then shard
// construction order. Three ancestry levels resolve every tie the
// transport's lockstep paths produce (an ACK's ancestry reaches the
// sender-shard event that transmitted the segment in three hops); the
// serial-oracle conformance suite in internal/scenario is the empirical
// arbiter that no deeper tie occurs.
//
// The payload is a tagged union, discriminated by which pointer is set:
//
//	p   != nil — resume the parked process p (the Sleep/wake path)
//	tgt != nil — call tgt.OnEvent(op, a, b) (the closure-free callback path)
//	otherwise  — call fn
//
// Every variant is inline — no interface boxing, no allocation on push or
// pop. Procs and Targets are pointers to objects that already exist; only
// the fn variant may carry a freshly allocated closure, and the hot paths
// (proc wake-ups, transport segments, device completions) avoid it.
type event struct {
	at     Time
	sched  Time // simulated time the event was pushed (send time for cross-shard events)
	psched Time // sched of the event that was executing at push time
	gsched Time // psched of the event that was executing at push time (grandparent sched)
	seq    uint64
	a, b   int64
	fn     func()
	p      *Proc
	tgt    Target
	op     uint32
	src    uint32 // shard that scheduled the event (0 on a serial engine)
}

// qent is one heap entry: an event's due time, inline, and the index of
// its payload in the engine's slot slab.
type qent struct {
	at   Time
	slot int64
}

// Engine is a discrete-event simulation executor. The zero value is not
// usable; create engines with NewEngine.
//
// All simulation code — event callbacks and Proc bodies — runs under the
// engine's handoff discipline, one piece at a time, so it may freely mutate
// shared simulation state without locks.
type Engine struct {
	now     Time
	heap    []qent  // min-heap ordered by the slots' (at, sched, psched, gsched, src, seq)
	slots   []event // payload slab the heap entries index into
	free    []int64 // indices of unused slots
	seq     uint64
	yield   chan struct{} // procs hand control back to the loop on this
	current *Proc         // proc currently holding control, if any

	// shard and set place the engine inside a sharded kernel (ShardSet).
	// A serial engine has shard 0 and a nil set. curSched/curPsched are the
	// sched and psched stamps of the event currently dispatching (0 during
	// setup) — the psched/gsched stamps for any events it pushes.
	shard     uint32
	set       *ShardSet
	curSched  Time
	curPsched Time

	executed uint64 // events executed so far
	spawned  int    // procs ever spawned
	finished int    // procs that ran to completion
	parked   int    // procs currently blocked awaiting a wake-up
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{yield: make(chan struct{})}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far (a cheap measure of
// simulation work, used by benchmarks).
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.heap) }

// Parked returns the number of processes currently blocked. A simulation
// that drains its event queue while processes remain parked has deadlocked;
// tests assert this is zero after Run.
func (e *Engine) Parked() int { return e.parked }

// ProcsFinished returns how many spawned processes ran to completion.
func (e *Engine) ProcsFinished() int { return e.finished }

// ProcsSpawned returns how many processes were ever spawned.
func (e *Engine) ProcsSpawned() int { return e.spawned }

// ---- heap ----------------------------------------------------------------
//
// An index heap: a binary min-heap of 16-byte (at, slot) entries over a
// slab of event payloads. The campaigns keep a standing queue of a few
// hundred events (the Figure 2 campaign averages 174 pending, peaking at
// 842), so a heap of whole 96-byte events spends its time copying them on
// every sift step. Here a sift moves 16-byte entries into a hole, a
// comparison decides on the inline due time alone unless the times tie
// (about 2% of the Figure 2 campaign's comparisons), and an event's payload
// is written once on push and read once on dispatch. Slots are recycled
// LIFO through the free list, so a steady-state queue allocates nothing; a
// freed slot keeps its stale payload (and the pointers in it) until a later
// push overwrites it — harmless, since engines live for one simulation.
//
// Every key is unique (seq is), so any valid heap pops the same sequence:
// the heap's shape and sift strategy cannot change the execution order.

// before reports whether heap entry x orders ahead of y. Only when the due
// times tie does it read the payloads, to apply the rest of the key.
func (e *Engine) before(x, y qent) bool {
	return x.at < y.at || x.at == y.at && e.tieLess(x.slot, y.slot)
}

// tieLess orders two equal-time events by scheduling time, then by the
// parent's and grandparent's scheduling times, then by scheduling shard,
// then by per-engine scheduling order. See the event type comment for why
// this reduces to seq order on a serial engine. Ties are rare, so it stays
// out of line to keep before inlinable in the sift loops.
//
//go:noinline
func (e *Engine) tieLess(i, j int64) bool {
	a, b := &e.slots[i], &e.slots[j]
	if a.sched != b.sched {
		return a.sched < b.sched
	}
	if a.psched != b.psched {
		return a.psched < b.psched
	}
	if a.gsched != b.gsched {
		return a.gsched < b.gsched
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// alloc returns a free payload slot, growing the slab when none is free.
func (e *Engine) alloc() int64 {
	if n := len(e.free); n > 0 {
		slot := e.free[n-1]
		e.free = e.free[:n-1]
		return slot
	}
	e.slots = append(e.slots, event{})
	return int64(len(e.slots) - 1)
}

// push inserts the locally scheduled event whose payload the caller wrote
// into slot, stamping it with the engine's clock, the dispatching event's
// sched, and the shard. Callers write the payload field by field through a
// pointer into the slab: assigning a whole 96-byte event literal would copy
// every field, stamps included, only for push to overwrite them. A recycled
// slot keeps its stale payload, so every caller sets all three union
// pointers (fn, p, tgt) — the dispatch tag — and the words its variant
// reads.
func (e *Engine) push(slot int64) {
	ev := &e.slots[slot]
	ev.sched = e.now
	ev.psched = e.curSched
	ev.gsched = e.curPsched
	ev.src = e.shard
	e.insert(slot)
}

// pushRaw inserts ev with its sched/src stamps already set (the ShardSet
// drain path injects cross-shard events with the sender's stamps).
func (e *Engine) pushRaw(ev event) {
	slot := e.alloc()
	e.slots[slot] = ev
	e.insert(slot)
}

// insert assigns the stamped event in slot its tiebreaker sequence number
// and enters it into the heap.
func (e *Engine) insert(slot int64) {
	e.seq++
	ev := &e.slots[slot]
	ev.seq = e.seq
	e.heap = append(e.heap, qent{})
	e.siftUp(e.heap, len(e.heap)-1, qent{at: ev.at, slot: slot})
}

// popMin removes the earliest entry and returns it; its slot stays
// allocated until the caller frees it. The queue must not be empty.
func (e *Engine) popMin() qent {
	h := e.heap
	min := h[0]
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	e.heap = h
	if n == 0 {
		return min
	}
	// Sift down, bottom-up: walk the hole from the root to a leaf along the
	// earlier child (one comparison per level), then move the former last
	// entry — which usually belongs near the bottom — back up into place.
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if r := c + 1; r < n {
			// Take the right child when it is due strictly earlier: the sign
			// bit of the difference selects it without a branch, which
			// mispredicts about half the time on a deep queue. Due times
			// are non-negative, so the difference cannot overflow.
			if d := h[r].at - h[c].at; d != 0 {
				c += int(uint64(d) >> 63)
			} else if e.tieLess(h[r].slot, h[c].slot) {
				c = r
			}
		}
		h[i] = h[c]
		i = c
	}
	e.siftUp(h, i, x)
	return min
}

// siftUp moves the hole at h[i] toward the root until x fits, and stores x.
func (e *Engine) siftUp(h []qent, i int, x qent) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(x, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
}

// ---- scheduling ----------------------------------------------------------

// Schedule runs fn after delay d (d may be zero; negative panics).
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// At runs fn at absolute time t, which must not be in the past.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at %v, now %v", t, e.now))
	}
	slot := e.alloc()
	ev := &e.slots[slot]
	ev.at, ev.fn, ev.p, ev.tgt = t, fn, nil, nil
	e.push(slot)
}

// ScheduleCall runs tgt.OnEvent(op, a, b) after delay d. It is the
// closure-free counterpart of Schedule: no allocation happens on this path.
func (e *Engine) ScheduleCall(d Time, tgt Target, op uint32, a, b int64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.AtCall(e.now+d, tgt, op, a, b)
}

// AtCall runs tgt.OnEvent(op, a, b) at absolute time t, which must not be
// in the past. It is the closure-free counterpart of At.
func (e *Engine) AtCall(t Time, tgt Target, op uint32, a, b int64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at %v, now %v", t, e.now))
	}
	slot := e.alloc()
	ev := &e.slots[slot]
	ev.at, ev.fn, ev.p, ev.tgt = t, nil, nil, tgt
	ev.op, ev.a, ev.b = op, a, b
	e.push(slot)
}

// scheduleProc schedules a handoff to p after delay d (the Sleep/wake
// path). Like ScheduleCall it allocates nothing.
func (e *Engine) scheduleProc(d Time, p *Proc) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	slot := e.alloc()
	ev := &e.slots[slot]
	ev.at, ev.fn, ev.p, ev.tgt = e.now+d, nil, p, nil
	e.push(slot)
}

// ---- execution -----------------------------------------------------------

// Run executes events until the queue is empty and returns the final time.
func (e *Engine) Run() Time { return e.RunUntil(MaxTime) }

// RunUntil executes events with at <= deadline and returns the current time
// afterwards; later events remain queued. The clock never advances past the
// time of the last executed event.
func (e *Engine) RunUntil(deadline Time) Time {
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.dispatch(e.popMin())
	}
	return e.now
}

// Step executes exactly one event if available and reports whether it did.
// It applies the same time-monotonicity check as RunUntil.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	e.dispatch(e.popMin())
	return true
}

// dispatch advances the clock to the popped entry and executes its event
// according to the union tag. It reads the payload in place and frees the
// slot before the callback runs, so events the callback schedules can
// reuse it.
func (e *Engine) dispatch(top qent) {
	if top.at < e.now {
		panic("sim: time went backwards")
	}
	ev := &e.slots[top.slot]
	e.now = top.at
	e.curSched = ev.sched
	e.curPsched = ev.psched
	e.executed++
	p, tgt, fn, op, a, b := ev.p, ev.tgt, ev.fn, ev.op, ev.a, ev.b
	e.free = append(e.free, top.slot)
	switch {
	case p != nil:
		e.handoff(p)
	case tgt != nil:
		tgt.OnEvent(op, a, b)
	default:
		fn()
	}
}

// ---- shard boundary ------------------------------------------------------

// Shard returns the engine's shard index within its ShardSet (0 for a
// serial engine).
func (e *Engine) Shard() int { return int(e.shard) }

// NextEventTime reports the due time of the earliest pending event; ok is
// false when the queue is empty. It is the engine's safe-time report to the
// ShardSet synchronizer.
func (e *Engine) NextEventTime() (t Time, ok bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// sameSet reports whether dst shares a shard set with e (or is e itself),
// panicking on a cross-engine post with no common synchronizer — that would
// mutate a foreign heap with no ordering guarantee.
func (e *Engine) sameSet(dst *Engine) {
	if e.set == nil || e.set != dst.set {
		panic("sim: cross-engine post between engines that do not share a ShardSet")
	}
}

// PostCall schedules tgt.OnEvent(op, a, b) at absolute time t on engine
// dst, which may belong to a different shard of the same ShardSet. On the
// local engine it is exactly AtCall; cross-shard it enqueues a timestamped
// message in the per-pair mailbox, to be merged into dst's queue at the
// next synchronization window. Cross-shard t must respect the set's
// lookahead: t >= e.Now() + lookahead (the shard boundary contract).
func (e *Engine) PostCall(dst *Engine, t Time, tgt Target, op uint32, a, b int64) {
	if dst == e {
		e.AtCall(t, tgt, op, a, b)
		return
	}
	e.sameSet(dst)
	e.set.post(e, dst, xmsg{at: t, sched: e.now, psched: e.curSched, gsched: e.curPsched, tgt: tgt, op: op, a: a, b: b})
}

// PostFunc is PostCall for a closure: fn runs at absolute time t on dst.
func (e *Engine) PostFunc(dst *Engine, t Time, fn func()) {
	if dst == e {
		e.At(t, fn)
		return
	}
	e.sameSet(dst)
	e.set.post(e, dst, xmsg{at: t, sched: e.now, psched: e.curSched, gsched: e.curPsched, fn: fn})
}

// Applier receives cross-shard state deliveries that are not simulation
// events: OnApply runs on the destination shard's timeline at the next
// synchronization window, before any event of that window. It models
// zero-cost bookkeeping a sender performs on receiver-owned state (e.g. the
// transport's receiver-side framing mirror) without counting as an executed
// event — keeping sharded event counts identical to the serial engine's.
type Applier interface {
	OnApply(a, b int64, data any)
}

// PostApply delivers ap.OnApply(a, b, data) to dst's shard. On the local
// engine it applies synchronously (exactly the serial behavior); cross-shard
// it is applied when dst's shard next synchronizes. The deferral is safe for
// state that the destination provably cannot observe before one lookahead
// has passed — which is the same contract cross-shard events live under.
func (e *Engine) PostApply(dst *Engine, ap Applier, a, b int64, data any) {
	if dst == e {
		ap.OnApply(a, b, data)
		return
	}
	e.sameSet(dst)
	e.set.post(e, dst, xmsg{sched: e.now, ap: ap, a: a, b: b, data: data})
}
