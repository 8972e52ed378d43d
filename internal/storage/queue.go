package storage

// reqQueue is a FIFO of requests indexed from a moving head, so a pop never
// copy-shifts the queue. A pop nils out its slot; the queue resets to the
// front of its backing array when it empties and compacts when the head
// passes half the length, so a queue that never drains stays within a small
// multiple of its peak length and every operation is amortized O(1). The
// zero value is an empty queue, and a queue is a plain value: the HDD keeps
// one per file in a map without a heap object per file.
type reqQueue struct {
	buf  []*Request
	head int
}

// Len returns the number of queued requests.
func (q *reqQueue) Len() int { return len(q.buf) - q.head }

// Push appends r at the tail.
func (q *reqQueue) Push(r *Request) { q.buf = append(q.buf, r) }

// Head returns the oldest queued request. The queue must not be empty.
func (q *reqQueue) Head() *Request { return q.buf[q.head] }

// Pop removes and returns the head. The queue must not be empty.
func (q *reqQueue) Pop() *Request {
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if n := len(q.buf); q.head == n {
		q.buf, q.head = q.buf[:0], 0
	} else if 2*q.head > n {
		k := copy(q.buf, q.buf[q.head:])
		clear(q.buf[k:])
		q.buf, q.head = q.buf[:k], 0
	}
	return r
}
