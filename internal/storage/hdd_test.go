package storage

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testHDD(e *sim.Engine) *HDD {
	return NewHDD(e, HDDParams{
		SeqBW:      100e6, // 100 MB/s
		Seek:       10 * sim.Millisecond,
		OpOverhead: 0,
		MaxRun:     4 << 20,
	})
}

func TestHDDSequentialNoExtraSeeks(t *testing.T) {
	e := sim.NewEngine()
	d := testHDD(e)
	const n = 64
	const size = 1 << 20
	done := 0
	for i := 0; i < n; i++ {
		d.Submit(&Request{File: 1, Offset: int64(i) * size, Size: size, Done: func() { done++ }})
	}
	e.Run()
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	if s := d.Stats(); s.Seeks != 1 {
		t.Fatalf("seeks = %d, want 1 (initial positioning only)", s.Seeks)
	}
	// 64 MB at 100 MB/s + one seek.
	want := sim.TransferTime(n*size, 100e6) + 10*sim.Millisecond
	if e.Now() != want {
		t.Fatalf("elapsed = %v, want %v", e.Now(), want)
	}
}

func TestHDDInterleavedStreamsBatch(t *testing.T) {
	// Two files, requests interleaved in submission order. The elevator must
	// serve runs up to MaxRun before switching, so seek count is about
	// totalBytes/MaxRun per stream, not one per request.
	e := sim.NewEngine()
	d := testHDD(e)
	const n = 32
	const size = 1 << 20 // 1 MiB requests, MaxRun = 4 MiB
	for i := 0; i < n; i++ {
		for f := FileID(1); f <= 2; f++ {
			d.Submit(&Request{File: f, Offset: int64(i) * size, Size: size})
		}
	}
	e.Run()
	s := d.Stats()
	// 64 MiB total, 4 MiB runs -> ~16 switches; allow slack but far fewer
	// than the 64 seeks a naive FIFO would pay.
	if s.Seeks < 8 || s.Seeks > 24 {
		t.Fatalf("seeks = %d, want ~16 (batched)", s.Seeks)
	}
}

func TestHDDStridedPaysSeekPerHole(t *testing.T) {
	e := sim.NewEngine()
	d := testHDD(e)
	const n = 16
	const size = 64 << 10
	// Holes between consecutive requests on the same file: every request
	// must pay a seek.
	for i := 0; i < n; i++ {
		d.Submit(&Request{File: 1, Offset: int64(i) * size * 2, Size: size})
	}
	e.Run()
	if s := d.Stats(); s.Seeks != n {
		t.Fatalf("seeks = %d, want %d", s.Seeks, n)
	}
}

func TestHDDContiguousVsInterleavedSlowdown(t *testing.T) {
	// The Table I mechanism: two interleaved contiguous streams should take
	// a bit more than 2x the time of one stream (seek amplification), but
	// far less than the unbatched worst case.
	run := func(two bool) sim.Time {
		e := sim.NewEngine()
		d := testHDD(e)
		const total = 256 << 20
		const req = 4 << 20
		for off := int64(0); off < total; off += req {
			d.Submit(&Request{File: 1, Offset: off, Size: req})
			if two {
				d.Submit(&Request{File: 2, Offset: off, Size: req})
			}
		}
		return e.Run()
	}
	alone := run(false)
	both := run(true)
	slow := float64(both) / float64(alone)
	if slow < 2.0 || slow > 3.2 {
		t.Fatalf("interleaved slowdown = %.2f, want in [2.0, 3.2]", slow)
	}
}

func TestHDDQueueAccounting(t *testing.T) {
	e := sim.NewEngine()
	d := testHDD(e)
	d.Submit(&Request{File: 1, Offset: 0, Size: 100})
	d.Submit(&Request{File: 1, Offset: 100, Size: 200})
	if d.Queued() != 1 || d.QueuedBytes() != 200 {
		// The first request went into service immediately.
		t.Fatalf("queued=%d bytes=%d, want 1/200", d.Queued(), d.QueuedBytes())
	}
	e.Run()
	if d.Queued() != 0 || d.QueuedBytes() != 0 {
		t.Fatalf("queue not drained: %d/%d", d.Queued(), d.QueuedBytes())
	}
	if s := d.Stats(); s.Ops != 2 || s.Bytes != 300 {
		t.Fatalf("stats = %+v", s)
	}
}

// Property: every submitted request completes exactly once, regardless of
// the interleaving pattern, and busy time is positive when work was done.
func TestPropertyHDDCompletesAll(t *testing.T) {
	f := func(plan []struct {
		File uint8
		Off  uint16
		Size uint16
	}) bool {
		e := sim.NewEngine()
		d := testHDD(e)
		want := 0
		got := 0
		for _, p := range plan {
			size := int64(p.Size%1024) + 1
			d.Submit(&Request{
				File:   FileID(p.File % 4),
				Offset: int64(p.Off),
				Size:   size,
				Done:   func() { got++ },
			})
			want++
		}
		e.Run()
		return got == want && d.Queued() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultHDDMatchesTableOneAlone(t *testing.T) {
	// One client writing 2 GB contiguously: the paper measured 13.4 s.
	// The raw device (without PVFS overheads) must be in that ballpark.
	e := sim.NewEngine()
	d := NewHDD(e, DefaultHDD())
	const total = 2 << 30
	const req = 4 << 20
	for off := int64(0); off < total; off += req {
		d.Submit(&Request{File: 1, Offset: off, Size: req})
	}
	e.Run()
	sec := e.Now().Seconds()
	if sec < 12 || sec > 16 {
		t.Fatalf("2 GB streaming took %.2fs, want ~13.4s", sec)
	}
}

// refHDD is the elevator as first written, kept as the reference model for
// HDD: per-file slices with a submission counter, a switch that scans every
// file the disk has seen for the head that has waited longest, a second
// scan to ask whether another file has queued work, and a copy-shift
// dequeue. It is O(files) per decision, and obviously right.
type refHDD struct {
	e *sim.Engine
	p HDDParams

	perFile map[FileID][]refEntry
	files   []FileID

	busy     bool
	cur      *Request
	headFile FileID
	headOff  int64
	headSet  bool
	runBytes int64

	queued      int
	queuedBytes int64
	seq         int64
	stats       Stats
}

type refEntry struct {
	r   *Request
	seq int64
}

func newRefHDD(e *sim.Engine, p HDDParams) *refHDD {
	return &refHDD{e: e, p: p, perFile: make(map[FileID][]refEntry)}
}

func (d *refHDD) Name() string       { return "ref-hdd" }
func (d *refHDD) Queued() int        { return d.queued }
func (d *refHDD) QueuedBytes() int64 { return d.queuedBytes }
func (d *refHDD) Stats() Stats       { return d.stats }

func (d *refHDD) Submit(r *Request) {
	d.seq++
	q, ok := d.perFile[r.File]
	if !ok {
		d.files = append(d.files, r.File)
	}
	d.perFile[r.File] = append(q, refEntry{r, d.seq})
	d.queued++
	d.queuedBytes += r.Size
	if !d.busy {
		d.busy = true
		d.serveNext()
	}
}

func (d *refHDD) pick() (*Request, bool) {
	if d.queued == 0 {
		return nil, false
	}
	if d.headSet {
		if q := d.perFile[d.headFile]; len(q) > 0 && q[0].r.Offset == d.headOff {
			exhausted := d.p.MaxRun > 0 && d.runBytes >= d.p.MaxRun
			if !exhausted || !d.otherFileQueued(d.headFile) {
				return q[0].r, false
			}
		}
	}
	var best FileID
	bestSeq := int64(-1)
	for _, f := range d.files {
		q := d.perFile[f]
		if len(q) == 0 {
			continue
		}
		if bestSeq < 0 || q[0].seq < bestSeq {
			best, bestSeq = f, q[0].seq
		}
	}
	r := d.perFile[best][0].r
	seek := !d.headSet || r.File != d.headFile || r.Offset != d.headOff
	return r, seek
}

func (d *refHDD) otherFileQueued(f FileID) bool {
	for _, g := range d.files {
		if g != f && len(d.perFile[g]) > 0 {
			return true
		}
	}
	return false
}

func (d *refHDD) serveNext() {
	r, seek := d.pick()
	if r == nil {
		d.busy = false
		return
	}
	q := d.perFile[r.File]
	copy(q, q[1:])
	d.perFile[r.File] = q[:len(q)-1]
	d.queued--
	d.queuedBytes -= r.Size

	dur := d.p.OpOverhead + sim.TransferTime(r.Size, d.p.SeqBW)
	if seek {
		dur += d.p.Seek
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
	d.e.ScheduleCall(dur, d, 0, 0, 0)
}

func (d *refHDD) OnEvent(op uint32, a, b int64) {
	r := d.cur
	d.cur = nil
	complete(r)
	d.serveNext()
}

// driveElevator runs one seeded request script against the device mk
// builds and logs, after every submission and at every completion, the
// device's queue and statistics; each completion also logs the request
// served, whether it paid a seek and whether it still carries queue links
// (it must not). The script streams through up to 300
// files with holes and jumps, and a completed request is, some of the
// time, resubmitted as-is from its Done with a new file and offset — the
// way pfs recycles its device requests. Two devices that make the same
// decisions produce the same log.
func driveElevator(seed uint64, mk func(*sim.Engine) Device) []string {
	rng := sim.NewRand(seed)
	files := 1 + rng.Intn(300)
	e := sim.NewEngine()
	d := mk(e)
	var log []string
	state := func(what string) {
		s := d.Stats()
		log = append(log, fmt.Sprintf("%s q=%d qb=%d ops=%d bytes=%d seeks=%d busy=%d",
			what, d.Queued(), d.QueuedBytes(), s.Ops, s.Bytes, s.Seeks, s.Busy))
	}
	cursor := make(map[FileID]int64)
	place := func(r *Request, f FileID) {
		r.File = f
		r.Size = int64(1+rng.Intn(8)) << 16
		switch rng.Intn(10) {
		case 0: // a hole
			cursor[f] += int64(1+rng.Intn(4)) << 16
		case 1: // a jump anywhere
			cursor[f] = int64(rng.Intn(1024)) << 16
		}
		r.Offset = cursor[f]
		cursor[f] += r.Size
	}
	file := func() FileID { return FileID(rng.Intn(files)) }
	var seeks int64
	resubmits := 2 * (50 + rng.Intn(300))
	n := 50 + rng.Intn(300)
	at := sim.Time(0)
	for i := 0; i < n; i++ {
		r := &Request{}
		place(r, file())
		r.Done = func() {
			s := d.Stats()
			state(fmt.Sprintf("serve f=%d off=%d seek=%v linked=%v", r.File, r.Offset, s.Seeks > seeks, r.prev != nil || r.next != nil))
			seeks = s.Seeks
			if resubmits > 0 && rng.Intn(3) > 0 {
				resubmits--
				f := r.File
				if rng.Intn(3) == 0 {
					f = file()
				}
				place(r, f)
				d.Submit(r)
				state("resubmit")
			}
		}
		at += sim.Time(rng.Intn(3)) * sim.Millisecond
		e.At(at, func() {
			d.Submit(r)
			state("submit")
		})
	}
	e.Run()
	state("end")
	return log
}

// TestPropertyHDDMatchesReference drives the real elevator and the
// O(files) reference with the same seeded scripts — 1 to 300 files,
// unlimited, short and default runs — and requires the same decisions:
// the same sequence of served (file, offset, seek), and the same Stats,
// Queued and QueuedBytes after every event.
func TestPropertyHDDMatchesReference(t *testing.T) {
	for _, maxRun := range []int64{0, 1 << 20, DefaultHDD().MaxRun} {
		p := HDDParams{SeqBW: 100e6, Seek: 5 * sim.Millisecond, OpOverhead: 100 * sim.Microsecond, MaxRun: maxRun}
		for seed := uint64(1); seed <= 40; seed++ {
			want := driveElevator(seed, func(e *sim.Engine) Device { return newRefHDD(e, p) })
			got := driveElevator(seed, func(e *sim.Engine) Device { return NewHDD(e, p) })
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("MaxRun %d, seed %d, event %d:\n got %s\nwant %s", maxRun, seed, i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("MaxRun %d, seed %d: %d events, want %d", maxRun, seed, len(got), len(want))
			}
		}
	}
}
