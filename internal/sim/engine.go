package sim

import (
	"fmt"
	"math/bits"
)

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

// qent is one queue entry: an event's due time, inline, and the index of
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
	now   Time
	slots []event // payload slab the queue entries index into
	free  []int64 // indices of unused slots
	seq   uint64

	// The radix queue (see "queue" below) of slot entries, ordered by the
	// slots' (at, sched, psched, gsched, src, seq); its buckets come after
	// the counters.
	last  Time   // floor: due time of the last popped entry
	head  int    // bucket 0 starts at buckets[0][head]
	mask  uint64 // bit k set while bucket k is non-empty
	minAt Time   // earliest pending due time; < 0 when not known

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

	// Bucket 0 holds the entries due at last; bucket k > 0 those whose due
	// time first differs from last at bit k-1.
	buckets [64][]qent
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{minAt: -1}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far (a cheap measure of
// simulation work, used by benchmarks).
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int {
	n := -e.head
	for _, b := range e.buckets {
		n += len(b)
	}
	return n
}

// Parked returns the number of processes currently blocked. A simulation
// that drains its event queue while processes remain parked has deadlocked;
// tests assert this is zero after Run.
func (e *Engine) Parked() int { return e.parked }

// ProcsFinished returns how many spawned processes ran to completion.
func (e *Engine) ProcsFinished() int { return e.finished }

// ProcsSpawned returns how many processes were ever spawned.
func (e *Engine) ProcsSpawned() int { return e.spawned }

// ---- queue ---------------------------------------------------------------
//
// A monotone radix queue (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990) of
// 16-byte (at, slot) entries over a slab of event payloads. No event is
// ever due before the clock, so the queue keeps a floor, last — the due
// time of the last popped entry, which equals now after dispatch — and
// files every entry by the highest bit in which its due time differs from
// the floor:
//
//	bucket 0    entries due exactly at last, in full tie-key order
//	bucket k+1  entries whose due time first differs from last at bit k
//
// Every entry in a lower bucket is due before every entry in a higher one,
// and a 64-bit occupancy mask finds the lowest non-empty bucket. A push is
// one xor, one bits.Len64 and an append. A pop takes bucket 0's head; when
// bucket 0 is empty it raises the floor to the earliest entry of the
// lowest non-empty bucket and redistributes that bucket, every entry of
// which lands in a strictly lower bucket — so an entry moves at most once
// per bit of its distance from the floor. Per event, the Figure 2 co-run
// makes 0.91 moves into a non-zero bucket plus 0.60 refill deliveries to
// bucket 0 (DESIGN.md). A lone entry in that bucket is simply popped.
//
// The floor rises only on a pop. RunUntil stops at a deadline, and events
// due between now and the earliest pending entry are then pushed from
// outside (another shard's PostCall, obs, tests); a due check that raised
// the floor would leave those below it. So the earliest due time is cached
// instead: a push lowers the cached value, a pop invalidates it
// (minAt < 0), and RunUntil's due check and its pop share one lookup
// (popDue).
//
// Entries with equal due times always share a bucket and keep their
// arrival order through every redistribution, so on a serial engine, where
// the tie key is non-decreasing in seq (see event), bucket 0 comes out of
// a refill already sorted. Only another shard's posts, stamped with the
// sender's clock, can arrive out of key order, so a refill insertion-sorts
// bucket 0, which on a serial engine is one pass that moves nothing. A
// post is due past the window's deadline and so never at a floor: a push
// due at the floor is local, orders after every entry already there, and
// is appended to bucket 0.
//
// Slots are recycled LIFO through the free list and buckets keep their
// capacity, so a steady-state queue allocates nothing; a freed slot keeps
// its stale payload (and the pointers in it) until a later push overwrites
// it — harmless, since engines live for one simulation.

// tieLess orders two equal-time events by scheduling time, then by the
// parent's and grandparent's scheduling times, then by scheduling shard,
// then by per-engine scheduling order. See the event type comment for why
// this reduces to seq order on a serial engine.
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

// bucketCap is the capacity every queue bucket starts with, carved out of
// one array per engine: a bucket that grows past it reallocates alone.
const bucketCap = 16

// alloc returns a free payload slot, growing the slab when none is free.
// The engine's first slot also carves the queue's buckets, so an engine
// that is built but never run allocates no bucket array.
func (e *Engine) alloc() int64 {
	if n := len(e.free); n > 0 {
		slot := e.free[n-1]
		e.free = e.free[:n-1]
		return slot
	}
	if e.slots == nil {
		arena := make([]qent, len(e.buckets)*bucketCap)
		for k := range e.buckets {
			e.buckets[k] = arena[k*bucketCap : k*bucketCap : (k+1)*bucketCap]
		}
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

// insert assigns the stamped event in slot its tiebreaker sequence number
// and files it in the bucket of its distance from the floor. The event must
// not be due before the floor, which the callers' checks against now
// guarantee.
func (e *Engine) insert(slot int64) {
	e.seq++
	ev := &e.slots[slot]
	ev.seq = e.seq
	x := qent{at: ev.at, slot: slot}
	if x.at < e.minAt {
		e.minAt = x.at
	}
	k := bits.Len64(uint64(x.at ^ e.last))
	if k == 0 {
		e.pushNow(x)
		return
	}
	e.buckets[k] = append(e.buckets[k], x)
	e.mask |= 1 << k
}

// pushNow appends an entry due at the floor to bucket 0. Only a local push
// can be due at the floor (a cross-shard post is due past the window's
// deadline, which no floor exceeds), and a local push orders after every
// entry already due at the floor (see event), so the tail is its place. A
// bucket that is full while its head has moved is compacted first, so a
// bucket 0 that never drains stays within its peak length.
func (e *Engine) pushNow(x qent) {
	b := e.buckets[0]
	if len(b) == cap(b) && e.head > 0 {
		n := copy(b, b[e.head:])
		b, e.head = b[:n], 0
	}
	e.buckets[0] = append(b, x)
	e.mask |= 1
}

// popDue removes and returns the earliest entry if it is due at or before
// deadline; ok is false when the queue is empty or nothing is due yet, and
// then the floor stays where it is. The entry's slot stays allocated until
// the caller frees it.
func (e *Engine) popDue(deadline Time) (x qent, ok bool) {
	if e.mask&1 == 0 {
		if e.mask == 0 {
			return qent{}, false
		}
		k := bits.TrailingZeros64(e.mask)
		b := e.buckets[k]
		if len(b) == 1 {
			x = b[0]
			if x.at > deadline {
				e.minAt = x.at
				return qent{}, false
			}
			e.buckets[k] = b[:0]
			e.mask &^= 1 << k
			e.last = x.at
			e.minAt = -1
			return x, true
		}
		floor := e.minAt
		if floor < 0 {
			floor = earliest(b)
			e.minAt = floor
		}
		if floor > deadline {
			return qent{}, false
		}
		e.refill(k, floor)
	} else if e.last > deadline {
		return qent{}, false
	}
	b := e.buckets[0]
	x = b[e.head]
	if e.head++; e.head == len(b) {
		e.buckets[0], e.head = b[:0], 0
		e.mask &^= 1
	}
	e.minAt = -1
	return x, true
}

// earliest returns the smallest due time in a non-empty bucket.
func earliest(b []qent) Time {
	min := b[0].at
	for _, x := range b[1:] {
		if x.at < min {
			min = x.at
		}
	}
	return min
}

// refill raises the floor to floor, the earliest due time in bucket k (the
// lowest non-empty bucket, bucket 0 being empty), and redistributes bucket
// k: every entry shares its bits above k-1 with the new floor, so each lands
// in a strictly lower bucket, and those due at the floor in bucket 0. The
// new bucket 0 is then put in tie-key order.
func (e *Engine) refill(k int, floor Time) {
	b := e.buckets[k]
	e.buckets[k] = b[:0]
	e.mask &^= 1 << k
	e.last = floor
	for _, x := range b {
		j := bits.Len64(uint64(x.at ^ floor))
		e.buckets[j] = append(e.buckets[j], x)
		e.mask |= 1 << j
	}
	b0 := e.buckets[0]
	for i := 1; i < len(b0); i++ {
		x, j := b0[i], i
		for ; j > 0 && e.tieLess(x.slot, b0[j-1].slot); j-- {
			b0[j] = b0[j-1]
		}
		b0[j] = x
	}
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
	for {
		top, ok := e.popDue(deadline)
		if !ok {
			return e.now
		}
		e.dispatch(top)
	}
}

// Step executes exactly one event if available and reports whether it did.
// It applies the same time-monotonicity check as RunUntil.
func (e *Engine) Step() bool {
	top, ok := e.popDue(MaxTime)
	if ok {
		e.dispatch(top)
	}
	return ok
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

// NextEventTime reports the due time of the earliest pending event; ok is
// false when the queue is empty. It is the engine's safe-time report to the
// ShardSet synchronizer. Like a RunUntil that stops, it leaves the floor
// where it is and caches what it found.
func (e *Engine) NextEventTime() (t Time, ok bool) {
	switch {
	case e.mask == 0:
		return 0, false
	case e.mask&1 != 0:
		return e.last, true
	case e.minAt < 0:
		e.minAt = earliest(e.buckets[bits.TrailingZeros64(e.mask)])
	}
	return e.minAt, true
}

// PostCall schedules tgt.OnEvent(op, a, b) at absolute time t on engine
// dst, which may belong to a different shard of the same ShardSet. On the
// local engine it is exactly AtCall. Cross-shard, t must respect the set's
// lookahead, t >= e.Now() + lookahead (the shard boundary contract; a
// violation panics), and the event is written into a slot of dst's slab,
// stamped as push would stamp it on e — e's clock, the dispatching event's
// sched and psched, e's shard — and inserted into dst's queue at once.
// That is safe because the shards step one after another (see ShardSet):
// dst is not running, and t lies past the current window's deadline and so
// past every shard's floor.
func (e *Engine) PostCall(dst *Engine, t Time, tgt Target, op uint32, a, b int64) {
	if dst == e {
		e.AtCall(t, tgt, op, a, b)
		return
	}
	if e.set == nil || e.set != dst.set {
		panic("sim: cross-engine post between engines that do not share a ShardSet")
	}
	if t < e.now+e.set.lookahead {
		panic(fmt.Sprintf("sim: cross-shard event at %v violates lookahead %v (shard %d now %v)",
			t, e.set.lookahead, e.shard, e.now))
	}
	slot := dst.alloc()
	ev := &dst.slots[slot]
	ev.at, ev.fn, ev.p, ev.tgt = t, nil, nil, tgt
	ev.op, ev.a, ev.b = op, a, b
	ev.sched, ev.psched, ev.gsched, ev.src = e.now, e.curSched, e.curPsched, e.shard
	dst.insert(slot)
}
