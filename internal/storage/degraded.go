package storage

import "repro/internal/sim"

// Degraded composes over any Device and, while degraded, stretches every
// completion by a first-order penalty: Factor multiplies the per-byte
// service time (relative to the nominal bandwidth given at construction)
// and Latency adds a fixed per-operation cost. Healthy (the initial state,
// and after Restore) it is a transparent pass-through — no extra events, no
// extra allocations, bit-identical to the unwrapped device — so wrapping
// every server's backend when a fault plan is present cannot move goldens
// unless a degrade event actually fires.
//
// The penalty is applied at completion rather than by remodeling the inner
// device's queue: the inner device still orders and batches requests
// exactly as when healthy (seek amplification and elevator behavior are
// properties of the request stream, not of the medium's speed). The
// penalties serialize through a virtual busy-until clock — a pipelined
// request stream cannot hide them the way it hides pure latency — so a
// device whose inner rate is R degraded by factor F sustains
// 1/(1/R + (F-1)/baseBW) bytes/second, which is baseBW/F when R equals the
// nominal rate: the factor really is a throughput divisor. The stretched
// completions then delay the upstream flow-control loop, which is what
// throttles the pipeline — the same first-order philosophy as the rest of
// the package.
type Degraded struct {
	E *sim.Engine

	inner  Device
	baseBW float64 // nominal bytes/second the Factor is relative to

	factor  float64  // 1 = healthy
	latency sim.Time // extra per-op latency while degraded

	busyUntil sim.Time // virtual slow medium's serialization clock
}

// NewDegraded wraps inner; baseBW is the device's nominal sequential
// bandwidth, used to convert a throughput factor into extra service time.
func NewDegraded(e *sim.Engine, inner Device, baseBW float64) *Degraded {
	if baseBW <= 0 {
		baseBW = 1e9
	}
	return &Degraded{E: e, inner: inner, baseBW: baseBW, factor: 1}
}

// Degrade enters (or re-parameterizes) the degraded state.
func (d *Degraded) Degrade(factor float64, latency sim.Time) {
	if factor < 1 {
		factor = 1
	}
	if latency < 0 {
		latency = 0
	}
	d.factor = factor
	d.latency = latency
}

// Restore returns the device to nominal service. Requests already submitted
// while degraded keep their penalty (their media time was already spent).
func (d *Degraded) Restore() {
	d.factor = 1
	d.latency = 0
}

// Name returns the inner device's name — the wrapper is an operational
// state, not a different medium.
func (d *Degraded) Name() string { return d.inner.Name() }

// Submit enqueues the request, stretching its completion while degraded.
func (d *Degraded) Submit(r *Request) {
	if d.factor <= 1 && d.latency == 0 {
		d.inner.Submit(r)
		return
	}
	extra := d.latency + sim.Time(float64(sim.TransferTime(r.Size, d.baseBW))*(d.factor-1))
	orig := r.Done
	r.Done = func() {
		// Hand the request back as the caller submitted it, so a caller
		// that resubmits it as-is from its Done is wrapped once, not once
		// per reuse.
		r.Done = orig
		if orig == nil {
			return
		}
		at := d.E.Now() + extra
		if d.busyUntil > d.E.Now() {
			at = d.busyUntil + extra
		}
		d.busyUntil = at
		d.E.At(at, orig)
	}
	d.inner.Submit(r)
}

// Queued returns the inner device's waiting-request count.
func (d *Degraded) Queued() int { return d.inner.Queued() }

// QueuedBytes returns the inner device's waiting bytes.
func (d *Degraded) QueuedBytes() int64 { return d.inner.QueuedBytes() }

// Stats returns the inner device's counters.
func (d *Degraded) Stats() Stats { return d.inner.Stats() }
