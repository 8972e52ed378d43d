package qos

import (
	"repro/internal/sim"
	"repro/internal/storage"
)

// DeviceProbe is the slice of storage.Device the telemetry layer reads:
// the backlog waiting at the device and its cumulative counters (busy time
// gives utilization). Every storage.Device implements it.
type DeviceProbe interface {
	QueuedBytes() int64
	Stats() storage.Stats
}

// AppStats are the cumulative per-application counters one server's probe
// layer maintains — the LASSi-style load/risk inputs a feedback scheduler
// consumes. All counters are monotone except Queued/QueuedBytes, which
// track the requests currently waiting for a flow slot.
type AppStats struct {
	// Requests counts requests that arrived (first chunk buffered).
	Requests int64
	// Granted counts requests admitted to a flow slot.
	Granted int64
	// Queued / QueuedBytes are the requests (and their bytes) currently
	// waiting for a flow slot.
	Queued      int64
	QueuedBytes int64
	// Active counts the requests currently holding a flow slot.
	Active int64
	// InFlight counts the chunks currently between socket and backend
	// completion — the application's live pipeline depth, the quantity a
	// DepthAdvisor budgets.
	InFlight int64
	// BytesIn counts chunk bytes pulled from sockets into processing.
	BytesIn int64
	// BytesDone counts chunk bytes stored (writes) or returned (reads) —
	// the per-application throughput source.
	BytesDone int64
}

// Demand reports whether the application currently has work at the server
// (a queued request or a held flow slot).
func (a AppStats) Demand() bool { return a.Queued > 0 || a.Active > 0 }

// Availability are one server's fault/availability counters — the
// partial-failure view of the probe layer. Downtime accumulates closed
// down intervals; Avail() folds a still-open interval in.
type Availability struct {
	// Crashes counts fail-stop events.
	Crashes int64
	// Downtime is the accumulated time the server spent down.
	Downtime sim.Time
	// DiscardedMsgs / DiscardedBytes count wire messages (and their bytes)
	// the server read and threw away — chunks arriving while down and
	// chunks of requests the crash killed. Together with BytesDone they
	// give goodput-vs-offered: offered = BytesIn + DiscardedBytes, goodput
	// = BytesDone.
	DiscardedMsgs  int64
	DiscardedBytes int64
}

// Telemetry is one server's probe layer: per-application counters plus a
// view of the backend device. The pfs server updates it on every request
// arrival, grant, chunk consumption and completion; schedulers and tests
// read it. All methods are O(1); the per-application slice grows once per
// application and is then reused (zero allocations in steady state).
type Telemetry struct {
	dev    DeviceProbe
	queued int
	active int
	apps   []AppStats

	avail     Availability
	down      bool
	downSince sim.Time
}

// NewTelemetry builds a probe layer over one backend device (nil is legal:
// device-level methods then report zero).
func NewTelemetry(dev DeviceProbe) *Telemetry {
	return &Telemetry{dev: dev}
}

// grow ensures the per-application slice covers app.
func (t *Telemetry) grow(app int) {
	for len(t.apps) <= app {
		t.apps = append(t.apps, AppStats{})
	}
}

// Arrive records a request of bytes arriving from app.
func (t *Telemetry) Arrive(app int, bytes int64) {
	t.grow(app)
	a := &t.apps[app]
	a.Requests++
	a.Queued++
	a.QueuedBytes += bytes
	t.queued++
}

// Grant records app's request of bytes being admitted to a flow slot.
func (t *Telemetry) Grant(app int, bytes int64) {
	t.grow(app)
	a := &t.apps[app]
	a.Granted++
	a.Queued--
	a.QueuedBytes -= bytes
	a.Active++
	t.queued--
	t.active++
}

// Consume records one chunk of n bytes of app pulled from a socket.
func (t *Telemetry) Consume(app int, n int64) {
	t.grow(app)
	a := &t.apps[app]
	a.BytesIn += n
	a.InFlight++
}

// Done records one chunk of n bytes of app stored or returned.
func (t *Telemetry) Done(app int, n int64) {
	t.grow(app)
	a := &t.apps[app]
	a.BytesDone += n
	a.InFlight--
}

// Finish records app releasing its flow slot.
func (t *Telemetry) Finish(app int) {
	t.grow(app)
	t.apps[app].Active--
	t.active--
}

// DemandApps counts the applications that currently have work at the
// server — the contention test a DepthAdvisor uses to leave solo
// applications unclamped.
func (t *Telemetry) DemandApps() int {
	n := 0
	for i := range t.apps {
		if t.apps[i].Demand() {
			n++
		}
	}
	return n
}

// Apps returns how many application IDs have been observed.
func (t *Telemetry) Apps() int { return len(t.apps) }

// App returns the counters of application i (zero value if unobserved).
func (t *Telemetry) App(i int) AppStats {
	if i < 0 || i >= len(t.apps) {
		return AppStats{}
	}
	return t.apps[i]
}

// Queued returns the requests currently waiting for a flow slot.
func (t *Telemetry) Queued() int { return t.queued }

// Active returns the requests currently holding a flow slot.
func (t *Telemetry) Active() int { return t.active }

// MarkDown records the server failing at time now. The per-application
// live gauges (Queued, Active, InFlight and their byte counters) are reset
// to zero — the crash killed every queued and in-flight request — while
// the monotone counters keep accumulating across the outage.
func (t *Telemetry) MarkDown(now sim.Time) {
	if t.down {
		return
	}
	t.down = true
	t.downSince = now
	t.avail.Crashes++
	for i := range t.apps {
		a := &t.apps[i]
		a.Queued, a.QueuedBytes, a.Active, a.InFlight = 0, 0, 0, 0
	}
	t.queued, t.active = 0, 0
}

// MarkUp records the server restarting at time now, closing the open
// downtime interval.
func (t *Telemetry) MarkUp(now sim.Time) {
	if !t.down {
		return
	}
	t.down = false
	t.avail.Downtime += now - t.downSince
}

// Discard records n wire bytes the server read and threw away.
func (t *Telemetry) Discard(n int64) {
	t.avail.DiscardedMsgs++
	t.avail.DiscardedBytes += n
}

// Avail returns the availability counters as of time now (folding a
// still-open down interval into Downtime).
func (t *Telemetry) Avail(now sim.Time) Availability {
	a := t.avail
	if t.down && now > t.downSince {
		a.Downtime += now - t.downSince
	}
	return a
}

// GoodputBytes sums the chunk bytes actually stored or returned.
func (t *Telemetry) GoodputBytes() int64 {
	var n int64
	for i := range t.apps {
		n += t.apps[i].BytesDone
	}
	return n
}

// OfferedBytes sums every wire byte clients pushed at the server — the
// consumed pipeline bytes plus everything discarded during outages.
func (t *Telemetry) OfferedBytes() int64 {
	n := t.avail.DiscardedBytes
	for i := range t.apps {
		n += t.apps[i].BytesIn
	}
	return n
}

// DeviceBusy returns the device's cumulative busy time.
func (t *Telemetry) DeviceBusy() sim.Time {
	if t.dev == nil {
		return 0
	}
	return t.dev.Stats().Busy
}

// DeviceQueuedBytes returns the bytes waiting at the device.
func (t *Telemetry) DeviceQueuedBytes() int64 {
	if t.dev == nil {
		return 0
	}
	return t.dev.QueuedBytes()
}
