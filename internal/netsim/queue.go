package netsim

// MsgQueue is a FIFO of messages indexed from a moving head, so a pop never
// copy-shifts the queue. A pop nils out its slot; the queue resets to the
// front of its backing array when it empties and compacts when the head
// passes half the length, so a queue that never drains stays within a small
// multiple of its peak length and every operation is amortized O(1). The
// zero value is an empty queue.
type MsgQueue struct {
	buf  []*Message
	head int
}

// Len returns the number of queued messages.
func (q *MsgQueue) Len() int { return len(q.buf) - q.head }

// Push appends m at the tail.
func (q *MsgQueue) Push(m *Message) { q.buf = append(q.buf, m) }

// At returns the i-th message from the head (0 is the head).
func (q *MsgQueue) At(i int) *Message { return q.buf[q.head+i] }

// Pop removes and returns the head. The queue must not be empty.
func (q *MsgQueue) Pop() *Message {
	m := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if n := len(q.buf); q.head == n {
		q.buf, q.head = q.buf[:0], 0
	} else if 2*q.head > n {
		k := copy(q.buf, q.buf[q.head:])
		clear(q.buf[k:])
		q.buf, q.head = q.buf[:k], 0
	}
	return m
}
