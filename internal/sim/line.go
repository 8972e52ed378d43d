package sim

// A Line models a serialized transmission resource: a NIC direction, a bus,
// a disk channel. Transfers are served strictly in submission order; each
// occupies the line for PerOp + size/Rate and is delivered Latency after it
// leaves the line. The line keeps cumulative busy time so callers can report
// utilization.
//
// Line is the building block for network hops in internal/netsim and is also
// used for memory-copy paths.
type Line struct {
	E *Engine

	// Rate is the service rate in bytes per second. Zero or negative means
	// infinitely fast (only PerOp and Latency apply).
	Rate float64

	// PerOp is a fixed serialization overhead charged per transfer
	// (protocol/CPU cost). It occupies the line.
	PerOp Time

	// Latency is propagation delay added after the transfer leaves the
	// line. It does not occupy the line.
	Latency Time

	busyUntil Time
	busy      Time  // cumulative occupied time
	bytes     int64 // cumulative bytes accepted
	ops       int64 // cumulative transfers
}

// NewLine returns a line on engine e with the given rate in bytes/second.
func NewLine(e *Engine, bytesPerSec float64) *Line {
	return &Line{E: e, Rate: bytesPerSec}
}

// reserve books n bytes of service on the line and returns their delivery
// time (serialization + latency).
func (l *Line) reserve(n int64) Time {
	start := l.E.now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	dur := l.PerOp + TransferTime(n, l.Rate)
	l.busyUntil = start + dur
	l.busy += dur
	l.bytes += n
	l.ops++
	return l.busyUntil + l.Latency
}

// Reserve books n bytes of service on the line and returns their delivery
// time without scheduling anything. Callers that deliver to a different
// shard pair it with Engine.PostCall: Reserve runs on the line's own engine
// (the sender side), and the returned time — at least the line's Latency in
// the future — is the cross-shard event's timestamp.
func (l *Line) Reserve(n int64) Time { return l.reserve(n) }

// Send schedules the transfer of n bytes; fn runs when the last byte has
// been delivered (serialization + latency). It returns the delivery time.
func (l *Line) Send(n int64, fn func()) Time {
	at := l.reserve(n)
	if fn != nil {
		l.E.At(at, fn)
	}
	return at
}

// SendCall is the closure-free Send: tgt.OnEvent(op, a, b) runs at delivery.
// Per-segment senders whose completion handler is a fixed method (netsim's
// transport) use this to avoid allocating a closure per transfer.
func (l *Line) SendCall(n int64, tgt Target, op uint32, a, b int64) Time {
	at := l.reserve(n)
	l.E.AtCall(at, tgt, op, a, b)
	return at
}

// Busy returns cumulative time the line has been occupied.
func (l *Line) Busy() Time { return l.busy }

// Bytes returns cumulative bytes accepted by the line.
func (l *Line) Bytes() int64 { return l.bytes }

// Ops returns the cumulative number of transfers.
func (l *Line) Ops() int64 { return l.ops }

// Utilization returns busy time divided by elapsed simulation time (0 if no
// time has passed).
func (l *Line) Utilization() float64 {
	if l.E.now == 0 {
		return 0
	}
	return float64(l.busy) / float64(l.E.now)
}

// QueueDelay returns how long a transfer submitted now would wait before
// starting service.
func (l *Line) QueueDelay() Time {
	if l.busyUntil <= l.E.now {
		return 0
	}
	return l.busyUntil - l.E.now
}
