package netsim

import (
	"testing"

	"repro/internal/sim"
)

// testFabric builds a fabric with nClients client hosts and one server host,
// all at bw bytes/sec.
func testFabric(e *sim.Engine, p Params, nClients int, bw float64) (*Fabric, []*Host, *Host) {
	f := NewFabric(e, p)
	clients := make([]*Host, nClients)
	for i := range clients {
		clients[i] = f.NewHost("client", bw, 0)
	}
	srv := f.NewHost("server", bw, 0)
	return f, clients, srv
}

// autoReader consumes every readable message immediately and tallies bytes.
func autoReader(c *Conn, got *int64, order *[]interface{}) {
	c.OnReadable = func(cc *Conn, m *Message) {
		mm := cc.ReadHead()
		*got += mm.Size
		if order != nil {
			*order = append(*order, mm.Meta)
		}
	}
}

func TestSingleFlowDelivery(t *testing.T) {
	e := sim.NewEngine()
	_, cl, srv := testFabric(e, DefaultParams(), 1, 1e9)
	f := cl[0].fabric
	c := f.Dial(cl[0], srv, 0)
	var got int64
	var order []interface{}
	autoReader(c, &got, &order)
	const chunk = 256 << 10
	for i := 0; i < 16; i++ {
		c.Send(&Message{Size: chunk, Meta: i})
	}
	e.Run()
	if got != 16*chunk {
		t.Fatalf("delivered %d bytes, want %d", got, 16*chunk)
	}
	for i, m := range order {
		if m.(int) != i {
			t.Fatalf("out-of-order delivery: %v", order)
		}
	}
	if c.Stats().Timeouts != 0 {
		t.Fatalf("unexpected timeouts: %+v", c.Stats())
	}
}

func TestSingleFlowNearLineRate(t *testing.T) {
	e := sim.NewEngine()
	_, cl, srv := testFabric(e, DefaultParams(), 1, 1e9)
	f := cl[0].fabric
	c := f.Dial(cl[0], srv, 0)
	var got int64
	var doneAt sim.Time
	total := int64(64 << 20)
	c.OnReadable = func(cc *Conn, m *Message) {
		mm := cc.ReadHead()
		got += mm.Size
		if got == total {
			doneAt = e.Now()
		}
	}
	for off := int64(0); off < total; off += 256 << 10 {
		c.Send(&Message{Size: 256 << 10})
	}
	e.Run()
	if got != total {
		t.Fatalf("delivered %d, want %d", got, total)
	}
	ideal := sim.TransferTime(total, 1e9)
	if doneAt > 2*ideal {
		t.Fatalf("took %v, ideal %v — transport too slow", doneAt, ideal)
	}
	if doneAt < ideal {
		t.Fatalf("took %v < ideal %v — conservation violated", doneAt, ideal)
	}
}

func TestSlowReaderStallsAtZeroWindow(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	_, cl, srv := testFabric(e, p, 1, 1e9)
	f := cl[0].fabric
	c := f.Dial(cl[0], srv, 0)
	// Server never reads.
	c.OnReadable = func(*Conn, *Message) {}
	for i := 0; i < 64; i++ {
		c.Send(&Message{Size: 256 << 10}) // 16 MiB total >> 1 MiB rmem
	}
	e.RunUntil(5 * sim.Second)
	if c.Unread() != p.Rmem {
		t.Fatalf("unread = %d, want full rmem %d", c.Unread(), p.Rmem)
	}
	if c.EffectiveWindow() > 0 {
		t.Fatalf("effective window = %d, want 0 when stalled", c.EffectiveWindow())
	}
	if c.Stats().Timeouts != 0 {
		t.Fatalf("window stall must not be treated as loss: %+v", c.Stats())
	}
	if e.Pending() != 0 {
		t.Fatalf("events still pending while fully stalled: %d", e.Pending())
	}
}

func TestReadReopensWindow(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	_, cl, srv := testFabric(e, p, 1, 1e9)
	f := cl[0].fabric
	c := f.Dial(cl[0], srv, 0)
	var readable []*Message
	c.OnReadable = func(cc *Conn, m *Message) { readable = append(readable, m) }
	total := int64(8 << 20)
	for off := int64(0); off < total; off += 256 << 10 {
		c.Send(&Message{Size: 256 << 10})
	}
	// Drain one message every 10ms, like a slow Trove.
	var drained int64
	var drainNext func()
	drainNext = func() {
		if len(readable) > 0 {
			readable = readable[1:]
			m := c.ReadHead()
			drained += m.Size
		}
		if drained < total {
			e.Schedule(10*sim.Millisecond, drainNext)
		}
	}
	e.Schedule(10*sim.Millisecond, drainNext)
	e.Run()
	if drained != total {
		t.Fatalf("drained %d, want %d", drained, total)
	}
	if c.AckedBytes() != total || c.Stats().AckedBytes != total {
		t.Fatalf("acked %d (stats %d), want %d", c.AckedBytes(), c.Stats().AckedBytes, total)
	}
}

func TestIncastDropsAndRecovers(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	p.PortBuf = 256 << 10 // tiny port buffer to force drops
	const n = 32
	f, cl, srv := testFabric(e, p, n, 1.25e9)
	per := int64(4 << 20)
	var got [n]int64
	for i := 0; i < n; i++ {
		c := f.Dial(cl[i], srv, i)
		i := i
		c.OnReadable = func(cc *Conn, m *Message) {
			mm := cc.ReadHead()
			got[i] += mm.Size
		}
		for off := int64(0); off < per; off += 256 << 10 {
			c.Send(&Message{Size: 256 << 10})
		}
	}
	e.Run()
	for i := 0; i < n; i++ {
		if got[i] != per {
			t.Fatalf("conn %d delivered %d, want %d", i, got[i], per)
		}
	}
	if srv.Stats().PortDrops == 0 {
		t.Fatal("expected port drops under 32-to-1 incast")
	}
	var timeouts int64
	for _, c := range f.Conns() {
		timeouts += c.Stats().Timeouts
	}
	if timeouts == 0 {
		t.Fatal("expected RTO timeouts under incast")
	}
}

func TestExactlyOnceUnderLoss(t *testing.T) {
	// Under heavy loss, bytes must be delivered to the application exactly
	// once and in order (go-back-N receiver discards duplicates).
	e := sim.NewEngine()
	p := DefaultParams()
	p.PortBuf = 128 << 10
	p.RTOBase = 10 * sim.Millisecond // fast recovery to keep the test short
	const n = 16
	f, cl, srv := testFabric(e, p, n, 1.25e9)
	var total int64
	var seq [n]int
	bad := false
	for i := 0; i < n; i++ {
		c := f.Dial(cl[i], srv, i)
		i := i
		c.OnReadable = func(cc *Conn, m *Message) {
			mm := cc.ReadHead()
			if mm.Meta.(int) != seq[i] {
				bad = true
			}
			seq[i]++
			total += mm.Size
		}
		for k := 0; k < 8; k++ {
			c.Send(&Message{Size: 128 << 10, Meta: k})
		}
	}
	e.Run()
	if bad {
		t.Fatal("messages delivered out of order")
	}
	if want := int64(n * 8 * (128 << 10)); total != want {
		t.Fatalf("total delivered %d, want %d (exactly once)", total, want)
	}
	var retrans int64
	for _, c := range f.Conns() {
		retrans += c.Stats().RetransSegs
	}
	if retrans == 0 {
		t.Fatal("test should have induced retransmissions")
	}
}

// replyRecorder is a reply target that remembers the last reply's words
// and when it arrived.
type replyRecorder struct {
	e     *sim.Engine
	op    uint32
	a, b  int64
	at    sim.Time
	count int
}

func (r *replyRecorder) OnEvent(op uint32, a, b int64) {
	r.op, r.a, r.b, r.at = op, a, b, r.e.Now()
	r.count++
}

func TestReplyPath(t *testing.T) {
	e := sim.NewEngine()
	f, cl, srv := testFabric(e, DefaultParams(), 1, 1e9)
	c := f.Dial(cl[0], srv, 0)
	rec := &replyRecorder{e: e}
	var readAt sim.Time
	c.OnReadable = func(cc *Conn, m *Message) {
		mm := cc.ReadHead()
		readAt = e.Now()
		cc.Reply(100, rec, 3, mm.Size, 7)
	}
	c.Send(&Message{Size: 64 << 10})
	e.Run()
	if rec.count != 1 || rec.op != 3 || rec.a != 64<<10 || rec.b != 7 {
		t.Fatalf("reply = %+v, want one reply (op 3, a %d, b 7)", rec, 64<<10)
	}
	// The reply crosses the server NIC and the switch.
	if min := readAt + f.P.SwitchLatency; rec.at < min {
		t.Fatalf("reply arrived at %v, before %v", rec.at, min)
	}
}

func TestTraceSamplesWindow(t *testing.T) {
	e := sim.NewEngine()
	f, cl, srv := testFabric(e, DefaultParams(), 1, 1e9)
	c := f.Dial(cl[0], srv, 0)
	c.Trace = NewTrace()
	var got int64
	autoReader(c, &got, nil)
	for i := 0; i < 8; i++ {
		c.Send(&Message{Size: 256 << 10})
	}
	e.Run()
	if c.Trace.Len() == 0 {
		t.Fatal("no trace samples")
	}
	if len(c.Trace.Sends()) == 0 {
		t.Fatal("no send samples")
	}
	if c.Trace.MaxWnd() <= 0 {
		t.Fatal("max window should be positive")
	}
	if c.Trace.ProgressAt(e.Now(), got) != 1.0 {
		t.Fatalf("final progress = %v, want 1.0", c.Trace.ProgressAt(e.Now(), got))
	}
}

func TestLowBandwidthSourceAvoidsDrops(t *testing.T) {
	// The Figure 5 mechanism: with client NICs at 1/10th the server NIC
	// rate, the fan-in stays below the port drain rate and nothing drops.
	e := sim.NewEngine()
	p := DefaultParams()
	f := NewFabric(e, p)
	const n = 8
	clients := make([]*Host, n)
	for i := range clients {
		clients[i] = f.NewHost("client", 125e6/8, 0) // slow sources
	}
	srv := f.NewHost("server", 1.25e9, 0)
	for i := 0; i < n; i++ {
		c := f.Dial(clients[i], srv, i)
		c.OnReadable = func(cc *Conn, m *Message) { cc.ReadHead() }
		for k := 0; k < 8; k++ {
			c.Send(&Message{Size: 256 << 10})
		}
	}
	e.Run()
	if d := srv.Stats().PortDrops; d != 0 {
		t.Fatalf("port drops = %d, want 0 with rate-limited sources", d)
	}
}

func TestConnAccessors(t *testing.T) {
	e := sim.NewEngine()
	f, cl, srv := testFabric(e, DefaultParams(), 1, 1e9)
	c := f.Dial(cl[0], srv, 7)
	if c.App != 7 {
		t.Fatalf("app = %d", c.App)
	}
	if c.Cwnd() != DefaultParams().InitCwnd {
		t.Fatalf("cwnd = %v", c.Cwnd())
	}
	c.OnReadable = func(cc *Conn, m *Message) { cc.ReadHead() }
	c.Send(&Message{Size: 1000})
	if c.QueuedBytes() != 1000 {
		t.Fatalf("queued = %d", c.QueuedBytes())
	}
	e.Run()
	if c.QueuedBytes() != 0 || c.AckedBytes() != 1000 {
		t.Fatalf("queued=%d acked=%d", c.QueuedBytes(), c.AckedBytes())
	}
	if len(f.Conns()) != 1 || f.TotalPortDrops() != 0 {
		t.Fatal("fabric accessors")
	}
	if f.String() == "" {
		t.Fatal("String empty")
	}
}
