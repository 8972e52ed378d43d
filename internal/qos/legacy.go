package qos

import "repro/internal/sim"

// The schedulers that predate the mitigation ones: PVFS's FIFO (Off) and
// the related work's coordinated orders (AppOrdered, RoundRobin). They
// have no knobs; New builds them like every other kind. Their selection
// logic is a line-for-line port of the server's original request pick —
// the paper and scenario golden checksums pin that FIFO, the zero Kind,
// reproduces it bit-for-bit.

// fifo admits requests in issue order (PVFS: "no particular scheduling
// mechanism at the server side", §IV-B1). FIFO orders by request *issue*
// time, not data arrival: PVFS learns about a request from its small
// descriptor message, which reaches the server long before the bulk data
// fights its way through a congested fabric. Ties keep queue order. It
// never reads Request.App, which makes Off the one app-blind kind.
type fifo struct{}

func (fifo) Pick(now sim.Time, q []Request) (int, sim.Time) {
	return oldest(q), 0
}

// oldest returns the index of the earliest-issued request (first in queue
// order on ties).
func oldest(q []Request) int {
	best := 0
	for i := 1; i < len(q); i++ {
		if q[i].Issued < q[best].Issued {
			best = i
		}
	}
	return best
}

// maxQueuedApp returns the largest application ID present in the queue.
func maxQueuedApp(q []Request) int {
	m := 0
	for i := range q {
		if q[i].App > m {
			m = q[i].App
		}
	}
	return m
}

// appHeads fills scratch (one slot per application ID) with the queue
// index of each application's oldest request, -1 where an application has
// nothing queued, and returns it. Both the per-application schedulers
// (fairshare's DRR and the token buckets) arbitrate over this view, and
// their determinism depends on the same tie rule: equal issue times keep
// queue order.
func appHeads(q []Request, scratch []int32) []int32 {
	for i := range scratch {
		scratch[i] = -1
	}
	for i := range q {
		a := q[i].App
		if scratch[a] < 0 || q[i].Issued < q[scratch[a]].Issued {
			scratch[a] = int32(i)
		}
	}
	return scratch
}

// appOrdered always prefers the lowest application ID first, making every
// server process applications in the same global order (the server-side
// coordination of Song et al., SC'11).
type appOrdered struct{}

func (appOrdered) Pick(now sim.Time, q []Request) (int, sim.Time) {
	best := 0
	for i := 1; i < len(q); i++ {
		if q[i].App < q[best].App || (q[i].App == q[best].App && q[i].Issued < q[best].Issued) {
			best = i
		}
	}
	return best, 0
}

// roundRobin alternates flow grants between applications: the next grant
// avoids the application granted last, falling back to plain FIFO when no
// other application has queued work. last starts at 0, so the first
// contested grant goes to another application even when application 0
// issued first: the order is not app-blind (Kind.AppBlind).
type roundRobin struct {
	last int // application granted most recently
}

func (r *roundRobin) Pick(now sim.Time, q []Request) (int, sim.Time) {
	best := -1
	for i := range q {
		if q[i].App == r.last {
			continue
		}
		if best < 0 || q[i].Issued < q[best].Issued {
			best = i
		}
	}
	if best < 0 {
		best = oldest(q)
	}
	r.last = q[best].App
	return best, 0
}
