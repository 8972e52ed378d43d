package sim

import "slices"

// Queue is a FIFO of *T indexed from a moving head, so a pop never
// copy-shifts the queue. A pop nils out its slot; the queue resets to the
// front of its backing array when it empties and compacts when the head
// passes half the length, so a queue that never drains stays within a small
// multiple of its peak length and every operation is amortized O(1). The
// zero value is an empty queue, and a queue is a plain value that can live
// in a map without a heap object of its own.
//
// It holds *T rather than T so that each element type gets its own
// instantiation, whose Pop inlines; all pointer type arguments would share
// one, whose Pop does not.
type Queue[T any] struct {
	buf  []*T
	head int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Cap returns the capacity of the backing array.
func (q *Queue[T]) Cap() int { return cap(q.buf) }

// Push appends x at the tail.
func (q *Queue[T]) Push(x *T) { q.buf = append(q.buf, x) }

// Grow makes room for n more pushes without reallocating.
func (q *Queue[T]) Grow(n int) { q.buf = slices.Grow(q.buf, n) }

// At returns the i-th element from the head (0 is the head).
func (q *Queue[T]) At(i int) *T { return q.buf[q.head+i] }

// Pop removes and returns the head. The queue must not be empty.
func (q *Queue[T]) Pop() *T {
	x := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if n := len(q.buf); q.head == n {
		q.buf, q.head = q.buf[:0], 0
	} else if 2*q.head > n {
		k := copy(q.buf, q.buf[q.head:])
		clear(q.buf[k:])
		q.buf, q.head = q.buf[:k], 0
	}
	return x
}
