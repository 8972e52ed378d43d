package storage

import (
	"testing"

	"repro/internal/sim"
)

// TestReqQueueCompacts runs request queues held by value in a map, as the
// HDD holds its per-file queues: each round copies a file's queue out,
// pushes and pops, and stores it back. No queue ever drains, so each must
// pop its own requests in push order and stay within a small multiple of
// its peak length; drained, each must be empty and keep its backing array.
// That no slot keeps a popped request is sim.TestQueue's to pin, as the
// slots are sim's.
func TestReqQueueCompacts(t *testing.T) {
	const files = 3
	queues := make(map[FileID]sim.Queue[Request])
	reqs := make([][]Request, files)
	next, popped := make([]int, files), make([]int, files)
	for f := range reqs {
		reqs[f] = make([]Request, 1000)
	}
	for round := 0; round < 200; round++ {
		for f := range reqs {
			q := queues[FileID(f)]
			for i := 0; i < 5 && next[f] < len(reqs[f]); i++ {
				q.Push(&reqs[f][next[f]])
				next[f]++
			}
			for q.Len() > 3 {
				if r := q.Pop(); r != &reqs[f][popped[f]] {
					t.Fatalf("file %d: popped request %d out of order", f, popped[f])
				}
				popped[f]++
			}
			queues[FileID(f)] = q
			if q.Cap() > 16 {
				t.Fatalf("file %d: backing array grew to %d slots for at most 8 queued requests", f, q.Cap())
			}
		}
	}
	for f := range reqs {
		q := queues[FileID(f)]
		c := q.Cap()
		for q.Len() > 0 {
			if q.Pop() != &reqs[f][popped[f]] {
				t.Fatalf("file %d: popped request %d out of order", f, popped[f])
			}
			popped[f]++
		}
		if popped[f] != len(reqs[f]) || q.Cap() != c {
			t.Fatalf("file %d: popped %d of %d; drained capacity %d (was %d)", f, popped[f], len(reqs[f]), q.Cap(), c)
		}
	}
}
