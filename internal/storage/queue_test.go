package storage

import (
	"testing"

	"repro/internal/sim"
)

// TestReqQueueCompacts runs a queue that never drains: it must pop in push
// order, hold no popped request anywhere in its backing array (past its
// length included) and stay within a small multiple of its peak length.
func TestReqQueueCompacts(t *testing.T) {
	var q reqQueue
	reqs := make([]Request, 1000)
	next, popped := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < 5 && next < len(reqs); i++ {
			q.Push(&reqs[next])
			next++
		}
		for q.Len() > 3 {
			if r := q.Pop(); r != &reqs[popped] {
				t.Fatalf("popped request %d out of order", popped)
			}
			popped++
		}
		for i, r := range q.buf[:cap(q.buf)] {
			if live := i >= q.head && i < len(q.buf); live != (r != nil) {
				t.Fatalf("slot %d (head %d, len %d) holds %p", i, q.head, len(q.buf), r)
			}
		}
		if cap(q.buf) > 16 {
			t.Fatalf("backing array grew to %d slots for at most 8 queued requests", cap(q.buf))
		}
	}
	for q.Len() > 0 {
		if q.Pop() != &reqs[popped] {
			t.Fatalf("popped request %d out of order", popped)
		}
		popped++
	}
	if popped != len(reqs) || len(q.buf) != 0 || q.head != 0 {
		t.Fatalf("popped %d of %d; queue not reset (len %d, head %d)", popped, len(reqs), len(q.buf), q.head)
	}
}

// TestFlashDropsServedRequests drains a standing queue deep enough to
// compact through a channel-parallel SSD: once a request's Done has run,
// the device's queue must not reference it, not even past the queue's
// length where a copy-down compaction leaves duplicates behind.
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
			for _, q := range d.queue.buf[:cap(d.queue.buf)] {
				if served[q] {
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
