package storage

import "repro/internal/sim"

// HDDParams configures the rotational disk model.
type HDDParams struct {
	// SeqBW is the streaming (sequential) bandwidth in bytes/second.
	SeqBW float64
	// Seek is the cost of repositioning the head (seek + rotational delay).
	Seek sim.Time
	// OpOverhead is a fixed per-request controller/dispatch cost.
	OpOverhead sim.Time
	// MaxRun bounds how many contiguous bytes are served from one file
	// while other files have queued work (elevator fairness). Zero means
	// unlimited (a stream with queued contiguous work is never preempted).
	MaxRun int64
}

// DefaultHDD approximates the parasilo cluster disks from the paper:
// 2 GB written alone in 13.4 s = ~150 MB/s streaming.
func DefaultHDD() HDDParams {
	return HDDParams{
		SeqBW:      155e6,
		Seek:       6500 * sim.Microsecond,
		OpOverhead: 150 * sim.Microsecond,
		MaxRun:     4 << 20,
	}
}

// HDD models a rotational disk: requests contiguous with the current head
// position stream at SeqBW; any other request first pays Seek. The queue is
// served with elevator-style batching: the disk keeps serving contiguous
// runs from the current file up to MaxRun bytes while other files wait,
// which is how OS schedulers amortize seeks between interleaved streams.
//
// Every decision costs O(1) however many files the disk has seen. Each
// file's queue is in submission order and only heads are ever served, so
// the oldest queued request is always some file's head — the head that has
// waited longest. The front of one list of every queued request, in
// submission order, is therefore the switch target.
type HDD struct {
	E *sim.Engine
	P HDDParams

	// perFile holds each file's FIFO of pending requests.
	perFile map[FileID]sim.Queue[Request]
	// oldest and newest are the ends of a doubly linked list, through
	// Request.prev and Request.next, of every queued request in
	// submission order.
	oldest, newest *Request

	busy     bool
	cur      *Request // request in service; completes at the next OnEvent
	headFile FileID
	headOff  int64
	headSet  bool
	runBytes int64

	queued      int
	queuedBytes int64
	stats       Stats
}

// NewHDD returns an idle disk.
func NewHDD(e *sim.Engine, p HDDParams) *HDD {
	return &HDD{E: e, P: p, perFile: make(map[FileID]sim.Queue[Request])}
}

// Name implements Device.
func (d *HDD) Name() string { return "hdd" }

// Queued implements Device.
func (d *HDD) Queued() int { return d.queued }

// QueuedBytes implements Device.
func (d *HDD) QueuedBytes() int64 { return d.queuedBytes }

// Stats implements Device.
func (d *HDD) Stats() Stats { return d.stats }

// Submit implements Device.
func (d *HDD) Submit(r *Request) {
	q := d.perFile[r.File]
	q.Push(r)
	d.perFile[r.File] = q
	r.prev, r.next = d.newest, nil
	if d.newest != nil {
		d.newest.next = r
	} else {
		d.oldest = r
	}
	d.newest = r
	d.queued++
	d.queuedBytes += r.Size
	if !d.busy {
		d.busy = true
		d.serveNext()
	}
}

// pick chooses the next request under the elevator policy and reports
// whether serving it requires a seek.
func (d *HDD) pick() (*Request, bool) {
	if d.queued == 0 {
		return nil, false
	}
	// Continuation of the current run?
	if d.headSet && (d.P.MaxRun <= 0 || d.runBytes < d.P.MaxRun) {
		if q := d.perFile[d.headFile]; q.Len() > 0 && q.At(0).Offset == d.headOff {
			return q.At(0), false
		}
	}
	// Switch: serve the file whose head request has waited longest
	// (deadline-style aging, like the kernel's deadline/CFQ schedulers),
	// which is the file of the oldest queued request. Choosing by queue
	// size instead would starve a draining stream's tail behind a newly
	// arrived bulk stream. A run that has used up MaxRun lands here too;
	// when no other file has queued work, the oldest request is the run's
	// own next one, so the run goes on without a seek.
	r := d.oldest
	// A "seek" is any discontinuity, including holes within the same file.
	seek := !d.headSet || r.File != d.headFile || r.Offset != d.headOff
	return r, seek
}

func (d *HDD) serveNext() {
	r, seek := d.pick()
	if r == nil {
		d.busy = false
		return
	}
	// Dequeue r: it is its file's head, anywhere in the submission list.
	q := d.perFile[r.File]
	q.Pop()
	d.perFile[r.File] = q
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		d.oldest = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		d.newest = r.prev
	}
	r.prev, r.next = nil, nil
	d.queued--
	d.queuedBytes -= r.Size

	dur := d.P.OpOverhead + sim.TransferTime(r.Size, d.P.SeqBW)
	if seek {
		dur += d.P.Seek
		d.stats.Seeks++
		d.runBytes = 0
	}
	d.stats.Ops++
	d.stats.Bytes += r.Size
	d.stats.Busy += dur
	d.headFile = r.File
	d.headOff = r.End()
	d.headSet = true
	d.runBytes += r.Size

	d.cur = r
	d.E.ScheduleCall(dur, d, 0, 0, 0)
}

// OnEvent implements sim.Target: completion of the request in service. The
// disk serves one request at a time, so the event needs no payload and
// scheduling it allocates nothing.
func (d *HDD) OnEvent(op uint32, a, b int64) {
	r := d.cur
	d.cur = nil
	complete(r)
	d.serveNext()
}
