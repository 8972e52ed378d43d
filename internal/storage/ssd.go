package storage

import "repro/internal/sim"

// SSDParams configures the flash device model.
//
// A flash device is a set of independent channels: each request is serviced
// entirely by one channel at a fixed per-request latency plus size/BW, with
// no positional (seek) cost. BW is the bandwidth of ONE channel, so the
// device peaks at BW × max(Channels, 1) bytes/second under enough queued
// parallelism but a strictly serial client sees only BW.
//
// Channels <= 1 selects the calibrated single-queue model used by the
// paper's Table I and Figures 2–3 (where RandPenalty models the mild FTL
// cost of non-contiguous requests); Channels > 1 selects the
// channel-parallel model, which ignores RandPenalty entirely.
type SSDParams struct {
	BW          float64  // bytes/second of one channel
	OpLat       sim.Time // per-request latency
	RandPenalty sim.Time // extra cost for non-contiguous requests (serial model only)
	Channels    int      // independent channels; <= 1 means the serial model
}

// DefaultSSD approximates the paper's SSDs (2 GB alone in 2.27 s ≈ 880 MB/s):
// one channel, i.e. the serial calibrated model.
func DefaultSSD() SSDParams {
	return SSDParams{BW: 900e6, OpLat: 90 * sim.Microsecond, RandPenalty: 25 * sim.Microsecond}
}

// NewSSD returns an SSD device: the serial calibrated model for
// Channels <= 1, the channel-parallel flash model otherwise.
func NewSSD(e *sim.Engine, p SSDParams) Device {
	if p.Channels <= 1 {
		return &serial{e: e, name: "ssd", bw: p.BW, opLat: p.OpLat, randPenalty: p.RandPenalty}
	}
	return &flash{
		e:     e,
		name:  "ssd",
		bw:    p.BW,
		opLat: p.OpLat,
		cur:   make([]*Request, p.Channels),
		idle:  p.Channels,
	}
}

// flash is the channel-parallel SSD: up to len(cur) requests in service at
// once, each on its own channel, FIFO dispatch from a single queue to the
// lowest-numbered idle channel. Service time is position-independent
// (opLat + size/bw) — flash has no head to move, so interleaved request
// streams cost nothing extra; what interference remains on this backend
// comes from the layers above (network incast, server request processing),
// which is exactly the decomposition the paper's backend axis probes.
type flash struct {
	e     *sim.Engine
	name  string
	bw    float64  // per-channel bytes/second; zero means infinitely fast
	opLat sim.Time // fixed per-request latency

	queue       sim.Queue[Request] // requests waiting for a channel
	cur         []*Request         // per-channel request in service (nil = idle)
	idle        int                // number of nil entries in cur
	queuedBytes int64
	stats       Stats
}

// OnEvent implements sim.Target: completion of the request in service on
// channel a. Scheduling it allocates nothing.
func (d *flash) OnEvent(op uint32, a, b int64) {
	ch := int(a)
	r := d.cur[ch]
	d.cur[ch] = nil
	d.idle++
	complete(r)
	d.serve()
}

func (d *flash) Name() string { return d.name }

// Queued counts requests waiting for a channel, like every other device
// (in-service requests are excluded).
func (d *flash) Queued() int { return d.queue.Len() }

func (d *flash) QueuedBytes() int64 { return d.queuedBytes }
func (d *flash) Stats() Stats       { return d.stats }

func (d *flash) Submit(r *Request) {
	d.queue.Push(r)
	d.queuedBytes += r.Size
	d.serve()
}

// serve dispatches queued requests to idle channels, lowest index first.
func (d *flash) serve() {
	for d.idle > 0 && d.queue.Len() > 0 {
		r := d.queue.Pop()
		ch := 0
		for d.cur[ch] != nil {
			ch++
		}
		d.cur[ch] = r
		d.idle--
		d.queuedBytes -= r.Size

		dur := d.opLat + sim.TransferTime(r.Size, d.bw)
		d.stats.Ops++
		d.stats.Bytes += r.Size
		// Busy sums per-channel service time, so it can exceed wall-clock
		// on a parallel device — it is utilization×channels, not makespan.
		d.stats.Busy += dur
		d.e.ScheduleCall(dur, d, 0, int64(ch), 0)
	}
}
