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
// must come back in Send order, and the queues' backing arrays must stay
// within a small multiple of the peak outstanding count — head indexing
// must not leak.
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
	for name, q := range map[string]*MsgQueue{"sendQ": &c.sendQ, "rcvQ": &c.rcvQ, "notifyQ": &c.notifyQ} {
		if q.Len() != 0 {
			t.Errorf("%s holds %d messages after the run", name, q.Len())
		}
		if bound := 4*peak + 8; cap(q.buf) > bound {
			t.Errorf("%s backing array holds %d slots for a peak of %d outstanding messages (bound %d)",
				name, cap(q.buf), peak, bound)
		}
	}
}

// TestMsgQueueCompacts pins the queue's own bookkeeping: FIFO order across
// resets and compactions, popped slots cleared, and a backing array that
// stays bounded when the queue never empties.
func TestMsgQueueCompacts(t *testing.T) {
	var q MsgQueue
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
		for i := 0; i < q.head; i++ {
			if q.buf[i] != nil {
				t.Fatalf("popped slot %d still holds a message", i)
			}
		}
		if cap(q.buf) > 16 {
			t.Fatalf("backing array grew to %d slots for at most 8 queued messages", cap(q.buf))
		}
	}
	for q.Len() > 0 {
		if q.Pop() != &msgs[popped] {
			t.Fatalf("popped message %d out of order", popped)
		}
		popped++
	}
	if popped != len(msgs) || len(q.buf) != 0 || q.head != 0 {
		t.Fatalf("popped %d of %d; queue not reset (len %d, head %d)", popped, len(msgs), len(q.buf), q.head)
	}
}
