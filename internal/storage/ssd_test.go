package storage

import (
	"testing"

	"repro/internal/sim"
)

// submitAt schedules a request submission at time t.
func submitAt(e *sim.Engine, d Device, t sim.Time, r *Request) {
	e.Schedule(t, func() { d.Submit(r) })
}

func TestFlashChannelsOverlap(t *testing.T) {
	// 4 requests of 1 ms each on 4 channels, submitted together: the device
	// finishes all of them after ~1 ms, not 4 ms.
	e := sim.NewEngine()
	d := NewSSD(e, SSDParams{BW: 0, OpLat: sim.Millisecond, Channels: 4})
	var done int
	for i := 0; i < 4; i++ {
		d.Submit(&Request{File: 1, Offset: int64(i) << 20, Size: 1 << 20,
			Done: func() { done++ }})
	}
	e.Run()
	if done != 4 {
		t.Fatalf("completed %d of 4", done)
	}
	if e.Now() != sim.Millisecond {
		t.Fatalf("4 parallel ops took %v, want exactly 1ms", e.Now())
	}
}

func TestFlashSerializesBeyondChannels(t *testing.T) {
	// 4 ops of 1 ms on 2 channels: two waves, 2 ms total.
	e := sim.NewEngine()
	d := NewSSD(e, SSDParams{BW: 0, OpLat: sim.Millisecond, Channels: 2})
	for i := 0; i < 4; i++ {
		d.Submit(&Request{File: 1, Offset: int64(i) << 20, Size: 1 << 20})
	}
	e.Run()
	if e.Now() != 2*sim.Millisecond {
		t.Fatalf("4 ops on 2 channels took %v, want 2ms", e.Now())
	}
}

func TestFlashNoSeekPenalty(t *testing.T) {
	// Scattered, interleaved offsets from two files: a flash device counts
	// no seeks and charges no positional penalty.
	e := sim.NewEngine()
	d := NewSSD(e, SSDParams{BW: 100e6, OpLat: 0, RandPenalty: sim.Second, Channels: 2})
	offs := []int64{900 << 20, 0, 500 << 20, 100 << 20}
	for i, off := range offs {
		d.Submit(&Request{File: FileID(i % 2), Offset: off, Size: 1 << 20})
	}
	e.Run()
	if d.Stats().Seeks != 0 {
		t.Fatalf("flash counted %d seeks", d.Stats().Seeks)
	}
	// 4 MiB at 100 MB/s per channel over 2 channels: ~2 x 1 MiB serial time.
	want := 2 * sim.TransferTime(1<<20, 100e6)
	if e.Now() != want {
		t.Fatalf("elapsed %v, want %v (no positional penalty)", e.Now(), want)
	}
}

func TestFlashStatsAndQueueAccounting(t *testing.T) {
	e := sim.NewEngine()
	d := NewSSD(e, SSDParams{BW: 0, OpLat: sim.Millisecond, Channels: 2})
	for i := 0; i < 3; i++ {
		d.Submit(&Request{File: 1, Offset: int64(i) << 20, Size: 2 << 20})
	}
	// Two in service, one waiting; Queued counts waiting only, like every
	// other device.
	if got := d.Queued(); got != 1 {
		t.Fatalf("Queued = %d, want 1 (the waiting request)", got)
	}
	if got := d.QueuedBytes(); got != 2<<20 {
		t.Fatalf("QueuedBytes = %d, want the one waiting request", got)
	}
	e.Run()
	st := d.Stats()
	if st.Ops != 3 || st.Bytes != 3*(2<<20) {
		t.Fatalf("stats = %+v", st)
	}
	// Busy is per-channel service time summed: 3 x 1 ms even though
	// wall-clock was 2 ms.
	if st.Busy != 3*sim.Millisecond {
		t.Fatalf("Busy = %v, want 3ms summed across channels", st.Busy)
	}
	if d.Queued() != 0 || d.QueuedBytes() != 0 {
		t.Fatalf("device not drained: %d reqs, %d bytes", d.Queued(), d.QueuedBytes())
	}
}

func TestFlashFIFODispatchDeterministic(t *testing.T) {
	// Completion order on equal-duration ops follows submission order
	// (lowest idle channel first), twice in a row.
	run := func() []int {
		e := sim.NewEngine()
		d := NewSSD(e, SSDParams{BW: 200e6, OpLat: 100 * sim.Microsecond, Channels: 3})
		var order []int
		for i := 0; i < 9; i++ {
			i := i
			submitAt(e, d, sim.Time(i)*sim.Microsecond,
				&Request{File: 1, Offset: int64(i) << 20, Size: 1 << 20,
					Done: func() { order = append(order, i) }})
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic completion order: %v vs %v", a, b)
		}
		if a[i] != i {
			t.Fatalf("completion order %v, want FIFO", a)
		}
	}
}

func TestSerialSSDUnchangedByChannelsField(t *testing.T) {
	// Channels 0 and 1 must select the calibrated serial model (RandPenalty
	// honored), keeping the paper's SSD figures bit-identical.
	for _, ch := range []int{0, 1} {
		e := sim.NewEngine()
		p := SSDParams{BW: 100e6, OpLat: 0, RandPenalty: sim.Millisecond, Channels: ch}
		d := NewSSD(e, p)
		d.Submit(&Request{File: 1, Offset: 0, Size: 1 << 20})
		d.Submit(&Request{File: 1, Offset: 500 << 20, Size: 1 << 20}) // discontiguous
		e.Run()
		if d.Stats().Seeks != 2 {
			t.Fatalf("Channels=%d: serial model should count 2 penalties, got %d",
				ch, d.Stats().Seeks)
		}
	}
}

// TestFlashDropsServedRequests drains a standing queue deep enough to
// compact through a channel-parallel SSD: once a request's Done has run,
// the device's queue must not hold it. That no slot past the queue's
// length keeps a popped request either is sim.TestQueue's to pin.
func TestFlashDropsServedRequests(t *testing.T) {
	e := sim.NewEngine()
	d := NewSSD(e, SSDParams{BW: 1e9, OpLat: sim.Microsecond, Channels: 2}).(*flash)
	reqs := make([]Request, 3000)
	served := make(map[*Request]bool)
	for i := range reqs {
		r := &reqs[i]
		*r = Request{File: 1, Offset: int64(i) << 16, Size: 1 << 16}
		r.Done = func() {
			served[r] = true
			if len(served)%50 != 0 {
				return
			}
			for j := 0; j < d.queue.Len(); j++ {
				if served[d.queue.At(j)] {
					t.Fatalf("after %d completions the queue still holds a served request", len(served))
				}
			}
		}
		d.Submit(r)
	}
	e.Run()
	if len(served) != len(reqs) {
		t.Fatalf("served %d of %d", len(served), len(reqs))
	}
}
