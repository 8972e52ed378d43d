package sim

import "testing"

// TestQueue pins the FIFO's bookkeeping: elements pop in push order across
// resets and compactions, At reads from the head, no slot of the backing
// array outside the live window holds an element (past the length
// included, where a copy-down compaction would leave duplicates behind), a
// queue that never drains keeps a bounded backing array, one that drains
// resets to the front of its array, and Grow makes room in advance.
func TestQueue(t *testing.T) {
	var q Queue[int]
	elems := make([]int, 2000)
	next, popped := 0, 0
	pop := func() {
		t.Helper()
		if x := q.Pop(); x != &elems[popped] {
			t.Fatalf("popped %p, want element %d (%p)", x, popped, &elems[popped])
		}
		popped++
	}
	check := func() {
		t.Helper()
		for i, x := range q.buf[:cap(q.buf)] {
			if live := i >= q.head && i < len(q.buf); live != (x != nil) {
				t.Fatalf("slot %d (head %d, len %d) holds %p", i, q.head, len(q.buf), x)
			}
		}
		for i := 0; i < q.Len(); i++ {
			if q.At(i) != &elems[popped+i] {
				t.Fatalf("At(%d) is not element %d", i, popped+i)
			}
		}
	}
	reset := func() {
		t.Helper()
		c := q.Cap()
		for q.Len() > 0 {
			pop()
		}
		if len(q.buf) != 0 || q.head != 0 || q.Cap() != c {
			t.Fatalf("drained queue not reset: len %d, head %d, cap %d (was %d)", len(q.buf), q.head, q.Cap(), c)
		}
		check()
	}

	// A standing queue: five pushes, then pops down to three, so the head
	// keeps passing half the length and the queue compacts but never
	// empties.
	for round := 0; round < 200; round++ {
		for i := 0; i < 5; i++ {
			q.Push(&elems[next])
			next++
		}
		for q.Len() > 3 {
			pop()
		}
		check()
		if q.Cap() > 16 {
			t.Fatalf("backing array grew to %d slots for at most 8 queued elements", q.Cap())
		}
	}
	reset()

	// Bursts that fill the queue past its capacity, half drained and then
	// refilled before the reset, so growth happens behind a moved head.
	for n := 4; next+2*n <= len(elems); n *= 2 {
		for i := 0; i < n; i++ {
			q.Push(&elems[next])
			next++
		}
		for q.Len() > n/2 {
			pop()
		}
		check()
		for i := 0; i < n; i++ {
			q.Push(&elems[next])
			next++
		}
		check()
		reset()
	}

	q.Grow(100)
	c := q.Cap()
	for i := 0; i < 100; i++ {
		q.Push(&elems[next])
		next++
	}
	if q.Cap() != c {
		t.Fatalf("100 pushes after Grow(100) grew the queue: %d → %d", c, q.Cap())
	}
	reset()
	if popped != next {
		t.Fatalf("popped %d of %d pushed", popped, next)
	}
}
