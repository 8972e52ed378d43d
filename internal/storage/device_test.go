package storage

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// reuseBackend is one request sink of the request-reuse contract tests: a
// device, or the write cache in front of one.
type reuseBackend struct {
	name  string
	build func(e *sim.Engine) (submit func(*Request), stats func() Stats)
}

// reuseBackends lists every device kind, a degraded device and the write
// cache.
func reuseBackends() []reuseBackend {
	device := func(mk func(e *sim.Engine) Device) func(e *sim.Engine) (func(*Request), func() Stats) {
		return func(e *sim.Engine) (func(*Request), func() Stats) {
			d := mk(e)
			return d.Submit, d.Stats
		}
	}
	return []reuseBackend{
		{"hdd", device(func(e *sim.Engine) Device { return testHDD(e) })},
		{"ssd", device(func(e *sim.Engine) Device { return NewSSD(e, DefaultSSD()) })},
		{"ssd-4ch", device(func(e *sim.Engine) Device {
			p := DefaultSSD()
			p.Channels = 4
			return NewSSD(e, p)
		})},
		{"ram", device(func(e *sim.Engine) Device { return NewRAM(e, DefaultRAM()) })},
		{"degraded-hdd", device(func(e *sim.Engine) Device {
			d := NewDegraded(e, testHDD(e), 100e6)
			d.Degrade(3, sim.Millisecond)
			return d
		})},
		{"cache-hdd", func(e *sim.Engine) (func(*Request), func() Stats) {
			c, dev := testCache(e, 8<<20)
			return c.Write, dev.Stats
		}},
	}
}

// TestDevicesDropRequestAtDone pins the Submit contract that lets callers
// recycle requests: once r.Done has run, no device (nor the write cache)
// reads or writes r again. Every backend replays the same seeded request
// stream twice — the second time each Done scribbles over its request, as
// a recycled request would be overwritten — and must complete the same
// requests at the same times with the same statistics.
func TestDevicesDropRequestAtDone(t *testing.T) {
	run := func(b reuseBackend, scribble bool) string {
		e := sim.NewEngine()
		submit, stats := b.build(e)
		rng := sim.NewRand(7)
		var log []string
		for i := 0; i < 200; i++ {
			i := i
			at := sim.Time(rng.Intn(50)) * sim.Millisecond
			r := &Request{
				File:   FileID(rng.Intn(4)),
				Offset: int64(rng.Intn(64)) << 20,
				Size:   int64(1+rng.Intn(4)) << 18,
				Stream: StreamID(rng.Intn(3)),
				Read:   rng.Intn(4) == 0,
			}
			r.Done = func() {
				log = append(log, fmt.Sprintf("%d@%v", i, e.Now()))
				if scribble {
					*r = Request{File: 99, Offset: -1 << 40, Size: 1, Stream: 77}
				}
			}
			e.At(at, func() { submit(r) })
		}
		e.Run()
		return fmt.Sprintf("%v %+v", log, stats())
	}
	for _, b := range reuseBackends() {
		if plain, reused := run(b, false), run(b, true); plain != reused {
			t.Errorf("%s: run changes when requests are overwritten after Done:\n plain  %s\n reused %s", b.name, plain, reused)
		}
	}
}

// TestDevicesResubmitAsIs pins the other half of the reuse contract: a
// request handed back through its Done is the caller's again, exactly as
// submitted, so resubmitting it unchanged from that Done must complete
// exactly like submitting a fresh request with the same fields. A wrapper
// that replaces r.Done in service (Degraded's penalty) must restore it.
func TestDevicesResubmitAsIs(t *testing.T) {
	const chains, rounds = 3, 4
	run := func(b reuseBackend, asIs bool) string {
		e := sim.NewEngine()
		submit, stats := b.build(e)
		var log []string
		for c := 0; c < chains; c++ {
			c, left := c, rounds
			var r *Request
			var done func()
			fresh := func() *Request {
				return &Request{File: FileID(c), Offset: int64(c) << 30, Size: 1 << 20, Stream: StreamID(c), Done: done}
			}
			done = func() {
				log = append(log, fmt.Sprintf("%d@%v", c, e.Now()))
				if left--; left == 0 {
					return
				}
				if !asIs {
					r = fresh()
				}
				submit(r)
			}
			r = fresh()
			e.At(sim.Time(c)*sim.Millisecond, func() { submit(r) })
		}
		e.Run()
		return fmt.Sprintf("%v %+v", log, stats())
	}
	for _, b := range reuseBackends() {
		if fresh, asIs := run(b, false), run(b, true); fresh != asIs {
			t.Errorf("%s: resubmitting a request as-is from its Done differs from a fresh request:\n fresh %s\n as-is %s", b.name, fresh, asIs)
		}
	}
}
