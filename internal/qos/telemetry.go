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

// SpanStats totals one application's request spans — the life of a
// request's share on one server, from client issue to reply, split at the
// share's arrival (its first chunk buffered at the server) and its
// flow-slot grant — over a whole run: the "where did the time go"
// decomposition. SumNet is issue to arrival (wire transmission, NIC
// sharing, incast backoff), SumQueue arrival to grant (the flow-slot wait
// a scheduler shapes), SumService grant to reply (CPU, device and the
// self-clocked rest of the transfer); the three add up to SumTotal. Sums
// are order-independent, so totals merged over servers are
// shard-invariant by construction.
type SpanStats struct {
	Count      int64    `json:"count"`
	Reads      int64    `json:"reads"`
	Bytes      int64    `json:"bytes"`
	SumNet     sim.Time `json:"sum_net"`
	SumQueue   sim.Time `json:"sum_queue"`
	SumService sim.Time `json:"sum_service"`
	SumTotal   sim.Time `json:"sum_total"`
	MaxTotal   sim.Time `json:"max_total"`
}

// Merge adds another server's totals of the same application.
func (st *SpanStats) Merge(o SpanStats) {
	st.Count += o.Count
	st.Reads += o.Reads
	st.Bytes += o.Bytes
	st.SumNet += o.SumNet
	st.SumQueue += o.SumQueue
	st.SumService += o.SumService
	st.SumTotal += o.SumTotal
	st.MaxTotal = max(st.MaxTotal, o.MaxTotal)
}

// Telemetry is one server's probe layer: per-application counters plus a
// view of the backend device. The pfs server updates it on every request
// arrival, grant, chunk consumption and completion; schedulers and tests
// read it. Once span counting is on (CountSpans; obs.Attach turns it on),
// it also totals every finished request share's net, queue and service
// stages per application (Span), and obs's timeline merges the servers'
// totals. All methods are O(1); the per-application slice grows once per
// application and is then reused (zero allocations in steady state).
type Telemetry struct {
	dev    DeviceProbe
	queued int
	active int
	apps   []AppStats

	avail     Availability
	down      bool
	downSince sim.Time

	// spans are the per-application span totals while span counting is
	// on (CountSpans), nil otherwise; spanRoom is how many more spans may
	// enter them, and spansDropped counts those that came after.
	spans        []SpanStats
	spanRoom     int
	spansDropped int64
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

// Span totals one finished request share of app while span counting is on
// (CountSpans): its bytes (read marks a read), issued by the client at
// issue, arrived at arrive, granted a flow slot at grant and replied at
// reply. While it is off, Span does nothing.
func (t *Telemetry) Span(app int, bytes int64, read bool, issue, arrive, grant, reply sim.Time) {
	if t.spans == nil {
		return
	}
	if t.spanRoom == 0 {
		t.spansDropped++
		return
	}
	t.spanRoom--
	if uint(app) >= uint(len(t.spans)) {
		return
	}
	st := &t.spans[app]
	st.Count++
	if read {
		st.Reads++
	}
	st.Bytes += bytes
	st.SumNet += arrive - issue
	st.SumQueue += grant - arrive
	st.SumService += reply - grant
	st.SumTotal += reply - issue
	st.MaxTotal = max(st.MaxTotal, reply-issue)
}

// CountSpans turns span counting on, with totals for applications 0 to
// nApps−1: the first limit request shares that finish from then on use up
// the room (a share of a later application enters no total), and every
// share after them is counted as dropped.
func (t *Telemetry) CountSpans(nApps, limit int) {
	t.spans = make([]SpanStats, nApps)
	t.spanRoom = limit
}

// Spans returns the per-application span totals and the count of spans
// dropped past the limit; nil totals while span counting is off.
func (t *Telemetry) Spans() ([]SpanStats, int64) { return t.spans, t.spansDropped }

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
