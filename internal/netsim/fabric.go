// Package netsim models the storage network of an HPC cluster: host NICs, a
// single switch, and a TCP-like transport with congestion control, receiver
// flow control and timeout-based loss recovery.
//
// The model is segment-level. Each connection carries an ordered stream of
// application messages; the sender transmits MSS-sized segments limited by
// min(cwnd, advertised receive window); segments serialize through the
// sender's NIC egress line, cross the switch, and may be tail-dropped at the
// receiver's port queue when the many-to-one fan-in overflows it — the TCP
// "incast" point (Phanishayee et al., FAST'08). Loss recovery is go-back-N
// on retransmission timeout with exponential backoff, which is how incast
// manifests in practice (whole windows are lost and the connection idles).
//
// Receiver-side flow control is what couples storage to the network: each
// connection has a finite receive buffer (rmem); bytes stay in it until the
// server application reads them, so a slow storage backend stalls senders
// at zero window, and window-reopen bursts after each read are what collide
// at the port queue.
package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// Params configures the transport and fabric.
type Params struct {
	// MSS is the segment payload size in bytes.
	MSS int64
	// SwitchLatency is the one-way propagation delay between any two hosts
	// (through the single switch).
	SwitchLatency sim.Time
	// AckLatency is the reverse-path delay for ACKs and window updates
	// (they are small and modeled without NIC occupancy).
	AckLatency sim.Time
	// PortBuf is the per-host ingress port queue capacity in bytes; the
	// switch tail-drops segments beyond it.
	PortBuf int64
	// Rmem is the per-connection receive buffer in bytes; the receiver
	// advertises rmem minus unread bytes.
	Rmem int64
	// InitCwnd is the initial congestion window in segments.
	InitCwnd float64
	// InitSSThresh is the initial slow-start threshold in segments.
	InitSSThresh float64
	// RTOBase is the base retransmission timeout; RTOMax caps backoff.
	RTOBase sim.Time
	RTOMax  sim.Time
	// MaxCwnd caps the congestion window in segments (socket buffer bound).
	MaxCwnd float64
}

// Lookahead returns the conservative synchronization bound the transport
// guarantees between hosts on different shards: every cross-host
// interaction is delayed by at least the switch's propagation latency
// (data segments, replies) or the reverse-path ACK latency (ACKs, window
// updates), so the smaller of the two is a safe sim.ShardSet lookahead.
func (p Params) Lookahead() sim.Time {
	la := p.SwitchLatency
	if p.AckLatency < la {
		la = p.AckLatency
	}
	return la
}

// DefaultParams models the paper's 10 GbE fabric with Linux-like TCP
// constants scaled to simulation granularity.
func DefaultParams() Params {
	return Params{
		MSS:           64 << 10,
		SwitchLatency: 40 * sim.Microsecond,
		AckLatency:    60 * sim.Microsecond,
		PortBuf:       1 << 20,
		Rmem:          2 << 20,
		InitCwnd:      2,
		InitSSThresh:  8,
		RTOBase:       200 * sim.Millisecond,
		RTOMax:        3 * sim.Second,
		MaxCwnd:       1024,
	}
}

// HostStats are cumulative per-host network counters.
type HostStats struct {
	PortDrops   int64 // segments tail-dropped at the ingress port queue
	PortDropped int64 // bytes dropped
	SegsIn      int64 // segments accepted into the port queue
	BytesIn     int64
	LinkDrops   int64 // segments dropped by an admin-down link or loss burst
}

// Host is a machine on the fabric with a full-duplex NIC.
type Host struct {
	ID   int
	Name string

	// Egress serializes outgoing segments (NIC TX).
	Egress *sim.Line
	// Ingress serializes incoming segments (NIC RX); its queue is bounded
	// by the fabric's PortBuf (drops happen before enqueue).
	Ingress *sim.Line

	fabric *Fabric
	portQ  int64 // bytes queued at/in the ingress line
	stats  HostStats

	// down marks the link administratively down (fault injection): data
	// segments to and from the host, its ACKs and its replies are dropped
	// until it is cleared. lossUntil is the end of a loss-burst window
	// during which only arriving data segments are dropped. Both are owned
	// by the host's shard, like every other field.
	down      bool
	lossUntil sim.Time
}

// Stats returns the host's cumulative counters.
func (h *Host) Stats() HostStats { return h.stats }

// SetLinkDown administratively downs (true) or restores (false) the host's
// link. While down, every data segment crossing the link is dropped in
// either direction, as are the host's ACKs and replies; senders recover
// through RTO backoff once the link is restored. Must be called from the
// host's own shard.
func (h *Host) SetLinkDown(down bool) { h.down = down }

// StartLossBurst opens (or extends) a deterministic loss window: for d from
// now, every data segment arriving at the host's port is dropped. ACKs and
// replies still flow. Must be called from the host's own shard.
func (h *Host) StartLossBurst(d sim.Time) {
	until := h.Egress.E.Now() + d
	if until > h.lossUntil {
		h.lossUntil = until
	}
}

// lossyAt reports whether a data segment arriving at time now is dropped.
func (h *Host) lossyAt(now sim.Time) bool { return h.down || now < h.lossUntil }

// Fabric is the cluster network: hosts joined by one switch.
type Fabric struct {
	E *sim.Engine
	P Params

	hosts []*Host
	conns []*Conn
}

// NewFabric creates a fabric on engine e.
func NewFabric(e *sim.Engine, p Params) *Fabric {
	if p.MSS <= 0 {
		panic("netsim: MSS must be positive")
	}
	return &Fabric{E: e, P: p}
}

// NewHost adds a host whose NIC runs at bytesPerSec in each direction, with
// perSeg fixed per-segment processing overhead (protocol/CPU cost).
func (f *Fabric) NewHost(name string, bytesPerSec float64, perSeg sim.Time) *Host {
	return f.NewHostOn(f.E, name, bytesPerSec, perSeg)
}

// NewHostOn adds a host whose NIC lines live on engine e — the shard that
// owns the host in a sharded simulation. e must be the fabric's engine or
// another shard of the same sim.ShardSet; all of a host's state (NIC lines,
// port queue, stats, receiver-side connection state) is then owned by that
// shard, and the transport routes cross-host events through the set.
func (f *Fabric) NewHostOn(e *sim.Engine, name string, bytesPerSec float64, perSeg sim.Time) *Host {
	h := &Host{
		ID:      len(f.hosts),
		Name:    name,
		Egress:  &sim.Line{E: e, Rate: bytesPerSec, PerOp: perSeg, Latency: f.P.SwitchLatency},
		Ingress: &sim.Line{E: e, Rate: bytesPerSec, PerOp: perSeg},
		fabric:  f,
	}
	f.hosts = append(f.hosts, h)
	return h
}

// Hosts returns all hosts in creation order.
func (f *Fabric) Hosts() []*Host { return f.hosts }

// Conns returns all connections in dial order.
func (f *Fabric) Conns() []*Conn { return f.conns }

// TotalPortDrops sums tail-drops across all hosts.
func (f *Fabric) TotalPortDrops() int64 {
	var n int64
	for _, h := range f.hosts {
		n += h.stats.PortDrops
	}
	return n
}

// TotalLinkDrops sums admin-down and loss-burst drops across all hosts.
func (f *Fabric) TotalLinkDrops() int64 {
	var n int64
	for _, h := range f.hosts {
		n += h.stats.LinkDrops
	}
	return n
}

func (f *Fabric) String() string {
	return fmt.Sprintf("fabric(%d hosts, %d conns, mss=%d)", len(f.hosts), len(f.conns), f.P.MSS)
}
