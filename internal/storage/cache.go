package storage

import "repro/internal/sim"

// CacheParams configures the kernel write-back cache model used when file
// synchronization is disabled ("Sync OFF"): writes complete once copied to
// memory, and a background flusher pushes dirty data to the device.
type CacheParams struct {
	// CopyBW is the rate at which writes are absorbed into memory.
	CopyBW float64
	// DirtyLimit is the maximum dirty bytes; writers exceeding it block
	// until flushing makes room (the kernel's dirty throttling).
	DirtyLimit int64
	// FlushDepth is the number of concurrent flush requests submitted to
	// the backing device.
	FlushDepth int
}

// DefaultCache sizes the cache like the paper's servers (128 GB nodes;
// the usual dirty_ratio keeps ~10-20% of RAM dirty).
func DefaultCache() CacheParams {
	return CacheParams{CopyBW: 2200e6, DirtyLimit: 16 << 30, FlushDepth: 4}
}

// WriteCache absorbs writes at memory speed, acknowledges them, and flushes
// to the backing device in the background. When the dirty limit is reached,
// incoming writes block — this back-pressure is what couples a slow disk to
// the network even with synchronization off.
type WriteCache struct {
	E   *sim.Engine
	P   CacheParams
	Dev Device

	copyLine *sim.Line
	dirty    int64
	flushQ   sim.Queue[Request]
	inFlight int
	blocked  sim.Queue[Request]

	absorbed     int64
	flushed      int64
	blockedCount int64
	drainFns     []func()
}

// NewWriteCache returns a cache flushing to dev.
func NewWriteCache(e *sim.Engine, p CacheParams, dev Device) *WriteCache {
	if p.FlushDepth <= 0 {
		p.FlushDepth = 1
	}
	return &WriteCache{E: e, P: p, Dev: dev, copyLine: sim.NewLine(e, p.CopyBW)}
}

// Dirty returns the current dirty byte count (absorbed but not flushed).
func (c *WriteCache) Dirty() int64 { return c.dirty }

// Absorbed returns cumulative bytes accepted into the cache.
func (c *WriteCache) Absorbed() int64 { return c.absorbed }

// Flushed returns cumulative bytes written back to the device.
func (c *WriteCache) Flushed() int64 { return c.flushed }

// BlockedWrites returns how many writes had to wait for dirty-limit room.
func (c *WriteCache) BlockedWrites() int64 { return c.blockedCount }

// Write absorbs r; r.Done fires when the copy into memory completes. If the
// dirty limit is exceeded the write waits (FIFO) for flushing to make room.
// Like Device.Submit, it holds no reference to r once r.Done has been called.
func (c *WriteCache) Write(r *Request) {
	if c.hasRoom(r) && c.blocked.Len() == 0 {
		c.admit(r)
		return
	}
	c.blockedCount++
	c.blocked.Push(r)
}

// hasRoom reports whether r fits under the dirty limit. A request larger
// than the whole limit is admitted only when the cache is empty, so it can
// never deadlock.
func (c *WriteCache) hasRoom(r *Request) bool {
	if c.P.DirtyLimit <= 0 {
		return true
	}
	if r.Size >= c.P.DirtyLimit {
		return c.dirty == 0
	}
	return c.dirty+r.Size <= c.P.DirtyLimit
}

func (c *WriteCache) admit(r *Request) {
	c.dirty += r.Size
	c.absorbed += r.Size
	done := r.Done
	c.copyLine.Send(r.Size, func() {
		if done != nil {
			done()
		}
	})
	// Queue the extent for background flushing (its completion is internal).
	fr := &Request{File: r.File, Offset: r.Offset, Size: r.Size, Stream: r.Stream}
	c.flushQ.Push(fr)
	c.kickFlusher()
}

func (c *WriteCache) kickFlusher() {
	for c.inFlight < c.P.FlushDepth && c.flushQ.Len() > 0 {
		fr := c.flushQ.Pop()
		c.inFlight++
		size := fr.Size
		fr.Done = func() {
			c.inFlight--
			c.dirty -= size
			c.flushed += size
			c.admitBlocked()
			c.kickFlusher()
			c.checkDrained()
		}
		c.Dev.Submit(fr)
	}
}

func (c *WriteCache) admitBlocked() {
	for c.blocked.Len() > 0 && c.hasRoom(c.blocked.At(0)) {
		c.admit(c.blocked.Pop())
	}
}

// OnDrained registers fn to run once everything absorbed so far has been
// flushed to the device (used by tests and fsync-like semantics).
func (c *WriteCache) OnDrained(fn func()) {
	if c.dirty == 0 && c.flushQ.Len() == 0 && c.inFlight == 0 && c.blocked.Len() == 0 {
		c.E.Schedule(0, fn)
		return
	}
	c.drainFns = append(c.drainFns, fn)
}

func (c *WriteCache) checkDrained() {
	if c.dirty != 0 || c.flushQ.Len() != 0 || c.inFlight != 0 || c.blocked.Len() != 0 {
		return
	}
	fns := c.drainFns
	c.drainFns = nil
	for _, fn := range fns {
		c.E.Schedule(0, fn)
	}
}
