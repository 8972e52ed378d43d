package netsim

import "repro/internal/sim"

// Message is an application-level message carried on a connection. Messages
// are delivered in order; a message becomes *readable* at the receiver once
// all of its bytes have been accepted, and occupies receive-buffer space
// until the application consumes it with ReadHead.
//
// A Message is read-only from Send on: Send queues the sender's pointer
// itself at the receiver rather than a copy, so under a sim.ShardSet both
// shards read it. The sender keeps no reference (retransmissions go by
// stream position), so only the receiver holds a message: the sender may
// reuse it once the receiver has both announced it to OnReadable and read
// it.
type Message struct {
	Size int64
	Meta interface{}

	endSeq int64 // stream position of the last byte + 1, set by Send
}

// ConnStats are cumulative per-connection counters.
type ConnStats struct {
	SentSegs    int64 // segments transmitted (including retransmissions)
	AckedBytes  int64 // cumulative ack (Conn.AckedBytes at Stats time)
	RetransSegs int64
	Timeouts    int64
	RcvdSegs    int64 // segments accepted in order
	OOODropped  int64 // out-of-order segments discarded (go-back-N)
	WndDropped  int64 // segments beyond the advertised window, discarded
}

// Conn is a unidirectional data connection (client pushes to server) with a
// lightweight reverse path for replies. It implements the transport
// described in the package comment.
type Conn struct {
	ID  int
	F   *Fabric
	Src *Host // client side
	Dst *Host // server side

	// App is an opaque tag for the owner (e.g. which application/process).
	App int

	// OnReadable, set by the server side, fires when the head message has
	// fully arrived. The server consumes it later with ReadHead.
	OnReadable func(c *Conn, m *Message)

	// ---- sender state ----
	appendedSeq int64 // bytes ever queued
	nextSeq     int64 // next byte to transmit
	ackedSeq    int64 // cumulative ack
	cwnd        float64
	ssthresh    float64
	rwndEst     int64 // receiver window last advertised
	rto         sim.Time
	rtoArmed    bool
	lastProg    sim.Time // time of last ack progress (for the RTO check)
	highSent    int64    // highest byte ever transmitted

	// ---- receiver state ----
	rcvNext int64              // next in-order byte expected
	readSeq int64              // bytes consumed by the server application
	rcvQ    sim.Queue[Message] // unread messages, in stream order
	// announced counts the messages at the head of rcvQ already announced
	// to OnReadable: rcvQ.At(announced) is the first one not yet announced.
	// A message is announced exactly when its last byte is accepted, and
	// rcvNext only advances in receive, which always runs notifyReadable —
	// so the announced messages are always a prefix of the unread ones.
	announced int
	// undispatched counts the announced messages not yet handed to
	// OnReadable: each announce schedules one opReadable event, which
	// dispatches the oldest of them. ReadHead only pops messages already
	// dispatched, so the dispatched ones are a prefix of the announced
	// ones and the next to dispatch is rcvQ.At(announced - undispatched).
	undispatched int

	stats ConnStats
	Trace *Trace // optional; set by probes
}

// srcE and dstE are the engines owning each side of the connection. With a
// serial fabric both are the fabric's engine; under a sim.ShardSet the
// client side (sender state) lives on the client host's shard and the
// server side (receiver state) on the server host's shard, and every event
// crossing sides goes through PostCall with the side-to-side latency as its
// lookahead. The receive queue is the one receiver-side structure the
// sender writes in place (Send, Grow).
func (c *Conn) srcE() *sim.Engine { return c.Src.Egress.E }
func (c *Conn) dstE() *sim.Engine { return c.Dst.Egress.E }

// Event ops for the sim.Target dispatch. Per-segment and per-ACK callbacks
// were previously closures capturing (seq, size) or (ack, rwnd) — one heap
// allocation each, millions per figure run. The connection now implements
// sim.Target once and carries those words in the event itself.
const (
	opArrive   uint32 = iota // segment delivered to dst's switch port; a=seq, b=size
	opIngress                // segment through dst's NIC; a=seq, b=size
	opAck                    // cumulative ACK at the sender; a=ack, b=rwnd
	opReadable               // a message fully arrived; dispatches the oldest undispatched one
	opRTO                    // retransmission timer; a=deadline
)

// OnEvent implements sim.Target: the closure-free landing point for every
// per-segment event of the connection.
func (c *Conn) OnEvent(op uint32, a, b int64) {
	switch op {
	case opArrive:
		c.arriveAtPort(a, b)
	case opIngress:
		c.Dst.portQ -= b
		c.receive(a, b)
	case opAck:
		c.handleAck(a, b)
	case opReadable:
		m := c.rcvQ.At(c.announced - c.undispatched)
		c.undispatched--
		c.OnReadable(c, m)
	case opRTO:
		c.checkRTO(sim.Time(a))
	}
}

// Dial creates a connection from src to dst.
func (f *Fabric) Dial(src, dst *Host, app int) *Conn {
	c := &Conn{
		ID:       len(f.conns),
		F:        f,
		Src:      src,
		Dst:      dst,
		App:      app,
		cwnd:     f.P.InitCwnd,
		ssthresh: f.P.InitSSThresh,
		rwndEst:  f.P.Rmem,
		rto:      f.P.RTOBase,
	}
	f.conns = append(f.conns, c)
	return c
}

// Stats returns the connection's counters.
func (c *Conn) Stats() ConnStats {
	s := c.stats
	s.AckedBytes = c.ackedSeq
	return s
}

// Cwnd returns the congestion window in segments.
func (c *Conn) Cwnd() float64 { return c.cwnd }

// EffectiveWindow returns the sender's current usable window in bytes:
// min(cwnd·MSS, advertised receive window).
func (c *Conn) EffectiveWindow() int64 {
	w := int64(c.cwnd * float64(c.F.P.MSS))
	if c.rwndEst < w {
		w = c.rwndEst
	}
	return w
}

// AckedBytes returns the bytes cumulatively acknowledged.
func (c *Conn) AckedBytes() int64 { return c.ackedSeq }

// QueuedBytes returns bytes accepted by Send but not yet acknowledged.
func (c *Conn) QueuedBytes() int64 { return c.appendedSeq - c.ackedSeq }

// Unread returns bytes held in the receive buffer (accepted, unconsumed).
func (c *Conn) Unread() int64 { return c.rcvNext - c.readSeq }

// Send queues m for transmission. Delivery order is Send order.
func (c *Conn) Send(m *Message) {
	if m.Size <= 0 {
		panic("netsim: message size must be positive")
	}
	c.appendedSeq += m.Size
	m.endSeq = c.appendedSeq
	// The receive queue is receiver-side state, appended in place even when
	// the receiver is on another shard: no byte of m can arrive before one
	// lookahead has passed, and until its last byte has, notifyReadable
	// stops short of it (endSeq > rcvNext) and ReadHead cannot pop it.
	c.rcvQ.Push(m)
	c.pump()
}

// Grow makes room for n more Sends in the receive queue, the one queue a
// Send pushes to, so a sender about to Send n messages grows it at most
// once instead of doubling it up from one.
func (c *Conn) Grow(n int) { c.rcvQ.Grow(n) }

// pump transmits as many segments as the windows allow.
func (c *Conn) pump() {
	mss := c.F.P.MSS
	for {
		if c.nextSeq >= c.appendedSeq {
			return // nothing to send
		}
		win := c.EffectiveWindow()
		inFlight := c.nextSeq - c.ackedSeq
		if inFlight >= win {
			return
		}
		seg := mss
		if rem := c.appendedSeq - c.nextSeq; rem < seg {
			seg = rem
		}
		if avail := win - inFlight; avail < seg {
			// Send a short segment only if it closes the remaining window;
			// otherwise wait (avoid silly-window syndrome).
			if avail < seg && inFlight > 0 {
				return
			}
			seg = avail
		}
		if seg <= 0 {
			return
		}
		c.transmit(c.nextSeq, seg)
		c.nextSeq += seg
	}
}

// transmit sends one segment [seq, seq+size) through the network.
func (c *Conn) transmit(seq, size int64) {
	c.stats.SentSegs++
	if seq < c.highSent {
		c.stats.RetransSegs++
	}
	if end := seq + size; end > c.highSent {
		c.highSent = end
	}
	if c.Trace != nil {
		c.Trace.sampleSend(c)
	}
	c.armRTO()
	if c.Src.down {
		// Administratively-down sender link: the segment dies at the NIC.
		// The RTO just armed recovers it after the link comes back.
		c.Src.stats.LinkDrops++
		return
	}
	// Reserve NIC service sender-side; the arrival at the receiver's switch
	// port is a receiver-shard event (delivery time >= now + SwitchLatency,
	// within the lookahead contract).
	at := c.Src.Egress.Reserve(size)
	c.srcE().PostCall(c.dstE(), at, c, opArrive, seq, size)
}

// arriveAtPort is the segment reaching the receiver's switch port.
func (c *Conn) arriveAtPort(seq, size int64) {
	h := c.Dst
	if h.lossyAt(c.dstE().Now()) {
		// Admin-down receiver link or loss-burst window: the segment is
		// dropped before the port queue; the sender recovers via RTO.
		h.stats.LinkDrops++
		return
	}
	if h.portQ+size > c.F.P.PortBuf {
		h.stats.PortDrops++
		h.stats.PortDropped += size
		return // tail drop; sender recovers via RTO
	}
	h.portQ += size
	h.stats.SegsIn++
	h.stats.BytesIn += size
	h.Ingress.SendCall(size, c, opIngress, seq, size) // opIngress undoes portQ
}

// receive handles an in-order segment at the server NIC.
func (c *Conn) receive(seq, size int64) {
	if seq != c.rcvNext {
		// Go-back-N receiver: discard out-of-order segments. (Bytes below
		// rcvNext are stale retransmissions; above are gaps after a loss.)
		c.stats.OOODropped++
		c.sendAck() // dupack refreshes the sender's window estimate
		return
	}
	if c.rcvNext+size-c.readSeq > c.F.P.Rmem {
		// Beyond the advertised window (stale window estimate at sender).
		c.stats.WndDropped++
		c.sendAck()
		return
	}
	c.rcvNext += size
	c.stats.RcvdSegs++
	c.notifyReadable()
	c.sendAck()
}

// notifyReadable fires OnReadable for every fully-arrived message that has
// not been announced yet, resuming at the announce cursor.
func (c *Conn) notifyReadable() {
	for ; c.announced < c.rcvQ.Len(); c.announced++ {
		m := c.rcvQ.At(c.announced)
		if m.endSeq > c.rcvNext {
			break
		}
		if c.OnReadable != nil {
			c.undispatched++
			c.dstE().ScheduleCall(0, c, opReadable, 0, 0)
		}
	}
}

// ReadHead consumes the head message from the receive buffer, freeing its
// bytes and advertising the wider window to the sender. The head must
// already have been handed to OnReadable (or, on a connection without
// one, announced): a dispatched message has fully arrived.
func (c *Conn) ReadHead() *Message {
	if c.announced == c.undispatched {
		panic("netsim: ReadHead before OnReadable was handed the head message")
	}
	m := c.rcvQ.Pop()
	c.announced--
	c.readSeq = m.endSeq
	// Window update travels on the reverse path.
	c.sendAck()
	return m
}

// sendAck sends a cumulative ACK carrying the current advertised window. It
// runs receiver-side; the ACK lands at the sender AckLatency later.
func (c *Conn) sendAck() {
	if c.Dst.down {
		return // admin-down link: no reverse path either
	}
	de := c.dstE()
	de.PostCall(c.srcE(), de.Now()+c.F.P.AckLatency, c, opAck, c.rcvNext, c.F.P.Rmem-c.Unread())
}

// handleAck runs at the sender when an ACK/window update arrives.
func (c *Conn) handleAck(ack, rwnd int64) {
	if c.Src.down {
		// The ACK was in flight when the sender's link went down; drop it.
		c.Src.stats.LinkDrops++
		return
	}
	c.rwndEst = rwnd
	if ack > c.ackedSeq {
		advanced := ack - c.ackedSeq
		c.ackedSeq = ack
		c.lastProg = c.srcE().Now()
		c.rto = c.F.P.RTOBase // progress resets backoff
		// Window growth per ACKed segment-equivalent.
		segs := float64(advanced) / float64(c.F.P.MSS)
		if c.cwnd < c.ssthresh {
			c.cwnd += segs // slow start
		} else {
			c.cwnd += segs / c.cwnd // congestion avoidance
		}
		if c.cwnd > c.F.P.MaxCwnd {
			c.cwnd = c.F.P.MaxCwnd
		}
	}
	if c.Trace != nil {
		c.Trace.sampleAck(c)
	}
	c.pump()
}

// armRTO starts the retransmission timer if it is not running.
func (c *Conn) armRTO() {
	if c.rtoArmed {
		return
	}
	c.rtoArmed = true
	c.lastProg = c.srcE().Now()
	deadline := c.srcE().Now() + c.rto
	c.srcE().AtCall(deadline, c, opRTO, int64(deadline), 0)
}

// checkRTO fires when the timer expires; if progress happened meanwhile the
// timer is re-armed from the time of that progress.
func (c *Conn) checkRTO(deadline sim.Time) {
	c.rtoArmed = false
	if c.ackedSeq >= c.appendedSeq {
		return // everything delivered; leave the timer off
	}
	if c.nextSeq <= c.ackedSeq {
		// Nothing in flight: the sender is window-stalled, not suffering
		// loss. A window update will restart transmission; do not back off.
		return
	}
	if c.lastProg+c.rto > deadline {
		// Progress since arming: re-arm relative to it.
		c.rtoArmed = true
		nd := c.lastProg + c.rto
		c.srcE().AtCall(nd, c, opRTO, int64(nd), 0)
		return
	}
	// Timeout: go-back-N from the cumulative ACK with multiplicative
	// backoff.
	c.stats.Timeouts++
	c.ssthresh = c.cwnd / 2
	if c.ssthresh < 2 {
		c.ssthresh = 2
	}
	c.cwnd = 1
	c.rto *= 2
	if c.rto > c.F.P.RTOMax {
		c.rto = c.F.P.RTOMax
	}
	c.nextSeq = c.ackedSeq
	if c.Trace != nil {
		c.Trace.sampleTimeout(c)
	}
	c.pump()
}

// Reply sends a size-byte server-to-client message on the reverse path: on
// arrival, tgt.OnEvent(op, a, b) runs on the client side. It uses the
// server's egress NIC and the switch, but no congestion control — the
// forward data path dwarfs replies.
func (c *Conn) Reply(size int64, tgt sim.Target, op uint32, a, b int64) {
	if c.Dst.down {
		// Admin-down server link: the reply is lost. The client-side retry
		// layer (when active) recovers via its per-request deadline.
		c.Dst.stats.LinkDrops++
		return
	}
	// Reserve the server's NIC, deliver on the client's shard (delivery is
	// at least SwitchLatency away — the Egress line's propagation delay).
	at := c.Dst.Egress.Reserve(size)
	c.dstE().PostCall(c.srcE(), at, tgt, op, a, b)
}
