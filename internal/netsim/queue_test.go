package netsim

import (
	"testing"

	"repro/internal/sim"
)

// TestTransportZeroAlloc pins the transport's allocation budget: once the
// connection's queues and the engine's event slab are warm, sending a
// preallocated message, delivering it segment by segment, reading it and
// acknowledging it allocate nothing. The receiver queues the sender's
// message itself, never a copy.
func TestTransportZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	f, cl, srv := testFabric(e, DefaultParams(), 1, 1.25e9)
	c := f.Dial(cl[0], srv, 0)
	reads := 0
	c.OnReadable = func(cc *Conn, m *Message) {
		if cc.ReadHead() != m {
			t.Fatal("ReadHead returned a message other than the announced one")
		}
		reads++
	}
	msgs := make([]Message, 4)
	sendAll := func() {
		for i := range msgs {
			msgs[i].Size = 200 << 10 // several segments each
			c.Send(&msgs[i])
		}
		e.Run()
	}
	for i := 0; i < 4; i++ {
		sendAll()
	}
	if avg := testing.AllocsPerRun(100, sendAll); avg != 0 {
		t.Fatalf("send+deliver+read+ack allocates %.1f objects per round of %d messages, want 0", avg, len(msgs))
	}
	if want := 105 * len(msgs); reads != want {
		t.Fatalf("read %d messages, want %d", reads, want)
	}
	if c.QueuedBytes() != 0 || c.Unread() != 0 {
		t.Fatalf("queued %d, unread %d after the runs", c.QueuedBytes(), c.Unread())
	}
}

// TestQueuesUnderStandingPipeline drives one connection whose reader
// always leaves at least 100 messages unread, so the head-indexed queues
// never empty and never reset: random message sizes, and loss bursts that
// force go-back-N retransmissions. Every message must be announced exactly
// once, ReadHead must return the very message OnReadable announced, reads
// must come back in Send order, no announced message may be left
// undispatched, and the receive queue's backing array must stay within a
// small multiple of the peak outstanding count — head indexing must not
// leak.
func TestQueuesUnderStandingPipeline(t *testing.T) {
	const (
		total    = 10000
		unread   = 100 // messages the reader always leaves behind
		inFlight = 300 // sender's cap on sent-but-unread messages
	)
	e := sim.NewEngine()
	f, cl, srv := testFabric(e, DefaultParams(), 1, 1.25e9)
	c := f.Dial(cl[0], srv, 0)
	rng := sim.NewRand(11)

	msgs := make([]Message, total)
	announces := make([]int, total)
	var announced []*Message // announced, not yet read
	sent, read, peak := 0, 0, 0
	readOne := func() {
		want := announced[0]
		announced = announced[1:]
		got := c.ReadHead()
		if got != want {
			t.Fatalf("ReadHead returned message %v, OnReadable announced %v", got.Meta, want.Meta)
		}
		if got.Meta.(int) != read {
			t.Fatalf("read message %v, want %d (Send order)", got.Meta, read)
		}
		read++
	}
	c.OnReadable = func(cc *Conn, m *Message) {
		announces[m.Meta.(int)]++
		announced = append(announced, m)
		for len(announced) > unread {
			readOne()
		}
	}
	var send func()
	send = func() {
		for sent < total && sent-read < inFlight {
			msgs[sent] = Message{Size: 1 + rng.Int63n(8<<10), Meta: sent}
			c.Send(&msgs[sent])
			sent++
		}
		if sent-read > peak {
			peak = sent - read
		}
		if sent < total {
			e.Schedule(20*sim.Microsecond, send)
		}
	}
	e.Schedule(0, send)
	for _, at := range []sim.Time{3, 11, 40, 90} {
		e.At(at*sim.Millisecond, func() { srv.StartLossBurst(2 * sim.Millisecond) })
	}
	e.Run()

	if sent != total || read != total-unread || len(announced) != unread {
		t.Fatalf("sent %d, read %d, announced-unread %d: the pipeline stalled", sent, read, len(announced))
	}
	for len(announced) > 0 {
		readOne()
	}
	for i, n := range announces {
		if n != 1 {
			t.Fatalf("message %d announced %d times, want exactly once", i, n)
		}
	}
	st := c.Stats()
	if st.Timeouts == 0 || st.RetransSegs == 0 {
		t.Fatalf("loss bursts forced no go-back-N recovery: %+v", st)
	}
	if c.rcvQ.Len() != 0 || c.announced != 0 || c.undispatched != 0 {
		t.Errorf("after the run: %d unread, %d announced, %d undispatched messages",
			c.rcvQ.Len(), c.announced, c.undispatched)
	}
	if bound := 4*peak + 8; c.rcvQ.Cap() > bound {
		t.Errorf("rcvQ backing array holds %d slots for a peak of %d outstanding messages (bound %d)",
			c.rcvQ.Cap(), peak, bound)
	}
}

// TestConnGrowFitsSends pins Conn.Grow: after Grow(n) the next n Sends fit
// the receive queue without growing it, and once they are delivered no
// announced message is left undispatched. It runs on a serial fabric and
// with the client and server hosts on two shards of one set, where the
// sender grows and appends to the receiver-side queue in place.
func TestConnGrowFitsSends(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		e := sim.NewEngine()
		testGrowFitsSends(t, e, e, func() { e.Run() })
	})
	t.Run("two shards", func(t *testing.T) {
		s := sim.NewShardSet(2, DefaultParams().Lookahead())
		testGrowFitsSends(t, s.Engine(0), s.Engine(1), func() { s.Run() })
	})
}

// testGrowFitsSends dials a connection from a client host on ce to a
// server host on se, grows it, sends into it and runs the simulation.
func testGrowFitsSends(t *testing.T, ce, se *sim.Engine, run func()) {
	f := NewFabric(ce, DefaultParams())
	c := f.Dial(f.NewHost("c", 1.25e9, 0), f.NewHostOn(se, "s", 1.25e9, 0), 0)
	c.OnReadable = func(cc *Conn, m *Message) { cc.ReadHead() }
	const n = 6
	c.Grow(n)
	rcvCap := c.rcvQ.Cap()
	if rcvCap < n {
		t.Fatalf("Grow(%d) left receive capacity %d", n, rcvCap)
	}
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i].Size = 4096
		c.Send(&msgs[i])
	}
	if c.rcvQ.Cap() != rcvCap {
		t.Fatalf("%d Sends grew the receive queue: %d → %d", n, rcvCap, c.rcvQ.Cap())
	}
	run()
	if c.rcvQ.Len() != 0 || c.announced != 0 || c.undispatched != 0 {
		t.Fatalf("after delivery: %d unread, %d announced, %d undispatched messages",
			c.rcvQ.Len(), c.announced, c.undispatched)
	}
}

// TestReadHeadNeedsDispatch pins ReadHead's rule: it pops only a message
// OnReadable was already handed. An empty connection, and a message that
// has fully arrived but whose announcement has not been dispatched yet,
// both panic; once dispatched, the same message reads.
func TestReadHeadNeedsDispatch(t *testing.T) {
	e := sim.NewEngine()
	f := NewFabric(e, DefaultParams())
	c := f.Dial(f.NewHost("c", 1.25e9, 0), f.NewHost("s", 1.25e9, 0), 0)
	var got *Message
	c.OnReadable = func(cc *Conn, m *Message) { got = m }
	mustPanic := func(when string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("ReadHead %s did not panic", when)
			}
		}()
		c.ReadHead()
	}
	mustPanic("on an empty connection")
	m := &Message{Size: 1000}
	c.Send(m)
	for c.undispatched == 0 {
		if !e.Step() {
			t.Fatal("the message was never announced")
		}
	}
	mustPanic("before dispatch")
	for got == nil && e.Step() {
	}
	if got != m || c.ReadHead() != m {
		t.Fatalf("dispatched %p, want %p", got, m)
	}
}

// TestMsgQueueCompacts runs the receive queue's type, a sim.Queue of
// messages, as a queue that never drains: it must pop in push order, show
// the unread messages from the head through At and stay within a small
// multiple of its peak length; drained, it must be empty and keep its
// backing array. That no slot keeps a popped message is sim.TestQueue's to
// pin, as the slots are sim's.
func TestMsgQueueCompacts(t *testing.T) {
	var q sim.Queue[Message]
	msgs := make([]Message, 1000)
	next, popped := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < 5 && next < len(msgs); i++ {
			q.Push(&msgs[next])
			next++
		}
		for q.Len() > 3 {
			if m := q.Pop(); m != &msgs[popped] {
				t.Fatalf("popped message %d out of order", popped)
			}
			popped++
		}
		for i := 0; i < q.Len(); i++ {
			if q.At(i) != &msgs[popped+i] {
				t.Fatalf("At(%d) is not message %d", i, popped+i)
			}
		}
		if q.Cap() > 16 {
			t.Fatalf("backing array grew to %d slots for at most 8 queued messages", q.Cap())
		}
	}
	c := q.Cap()
	for q.Len() > 0 {
		if q.Pop() != &msgs[popped] {
			t.Fatalf("popped message %d out of order", popped)
		}
		popped++
	}
	if popped != len(msgs) || q.Len() != 0 || q.Cap() != c {
		t.Fatalf("popped %d of %d; drained queue holds %d with capacity %d (was %d)", popped, len(msgs), q.Len(), q.Cap(), c)
	}
}
