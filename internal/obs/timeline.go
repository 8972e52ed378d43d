package obs

import (
	"strconv"

	"repro/internal/pfs"
	"repro/internal/sim"
)

// SpanStats aggregates one application's request spans over a whole run —
// the "where did the time go" decomposition. Sums are over every
// completed request share on every server; order-independent, so the
// aggregate is shard-invariant by construction.
type SpanStats struct {
	Count      int64    `json:"count"`
	Reads      int64    `json:"reads"`
	Bytes      int64    `json:"bytes"`
	SumNet     sim.Time `json:"sum_net"`
	SumQueue   sim.Time `json:"sum_queue"`
	SumService sim.Time `json:"sum_service"`
	SumTotal   sim.Time `json:"sum_total"`
	MaxTotal   sim.Time `json:"max_total"`
}

// Timeline is the exported result of one observed run: plain data, safe to
// marshal, carried on core.RunResult. Ticks counts the retained samples
// after trailing idle ticks (no counter movement anywhere on the platform)
// are trimmed; tick k covers simulated time ((k)·Interval, (k+1)·Interval].
type Timeline struct {
	Interval sim.Time `json:"interval"`
	Ticks    int      `json:"ticks"`
	Apps     []string `json:"apps"`
	Servers  int      `json:"servers"`
	// CapacityBps is the backend's nominal sequential bandwidth (0 for the
	// null backend) — the denominator of the LASSi-style risk series.
	CapacityBps float64 `json:"capacity_bps"`

	// PerApp is tick-major [tick][server][app]; PerServer [tick][server];
	// Client [tick][app].
	PerApp    []AppPoint    `json:"per_app"`
	PerServer []ServerPoint `json:"per_server"`
	Client    []ClientPoint `json:"client"`

	// Spans is indexed by application (empty when span collection was
	// disabled); SpansDropped counts spans lost to full buffers.
	Spans        []SpanStats `json:"spans,omitempty"`
	SpansDropped int64       `json:"spans_dropped,omitempty"`
}

// AppAt returns the snapshot of app at server srv at tick k.
func (t *Timeline) AppAt(k, srv, app int) AppPoint {
	return t.PerApp[(k*t.Servers+srv)*len(t.Apps)+app]
}

// ServerAt returns the snapshot of server srv at tick k.
func (t *Timeline) ServerAt(k, srv int) ServerPoint {
	return t.PerServer[k*t.Servers+srv]
}

// ClientAt returns app's client-side snapshot at tick k.
func (t *Timeline) ClientAt(k, app int) ClientPoint {
	return t.Client[k*len(t.Apps)+app]
}

// Timeline freezes the collector into an exportable result. apps names the
// applications (len must be >= the attach-time app count is not required;
// missing names render as their index). Trailing ticks during which no
// sampled counter moved anywhere on the platform are trimmed, keeping one
// flat tick so series visibly settle; a run that outlives the observation
// horizon simply ends mid-series.
func (c *Collector) Timeline(apps []string) *Timeline {
	n := c.cfg.Samples
	last := 0 // index of the last tick with movement
	for _, sm := range c.samplers {
		for k := n - 1; k > last; k-- {
			if sm.changed(k) {
				last = k
				break
			}
		}
	}
	for k := n - 1; k > last; k-- {
		if c.client.changed(k) {
			last = k
			break
		}
	}
	ticks := last + 1
	if ticks < n {
		ticks++ // one flat tick after the action
	}

	names := make([]string, c.nApps)
	for i := range names {
		if i < len(apps) {
			names[i] = apps[i]
		} else {
			names[i] = strconv.Itoa(i)
		}
	}
	tl := &Timeline{
		Interval:    c.cfg.Interval,
		Ticks:       ticks,
		Apps:        names,
		Servers:     len(c.samplers),
		CapacityBps: c.capBps,
		PerApp:      make([]AppPoint, ticks*len(c.samplers)*c.nApps),
		PerServer:   make([]ServerPoint, ticks*len(c.samplers)),
		Client:      make([]ClientPoint, ticks*c.nApps),
	}
	for si, sm := range c.samplers {
		for k := 0; k < ticks; k++ {
			tl.PerServer[k*tl.Servers+si] = sm.pts[k]
			copy(tl.PerApp[(k*tl.Servers+si)*c.nApps:], sm.app[k*c.nApps:(k+1)*c.nApps])
		}
	}
	copy(tl.Client, c.client.pts[:ticks*c.nApps])

	if len(c.spans) > 0 {
		tl.Spans = make([]SpanStats, c.nApps)
		for _, b := range c.spans {
			tl.SpansDropped += b.dropped
			for a := range tl.Spans {
				tl.Spans[a].merge(b.stats[a])
			}
		}
	}
	return tl
}

// add counts one span in the totals. The stages are pfs.Span's Net, Queue,
// Service and Total spelled out: calling those value-receiver methods
// through a pointer copies the span each time, and the copies give
// RecordSpan a stack frame on every call, dropped spans included.
func (st *SpanStats) add(sp *pfs.Span) {
	st.Count++
	if sp.Read {
		st.Reads++
	}
	st.Bytes += sp.Bytes
	st.SumNet += sp.Arrive - sp.Issue
	st.SumQueue += sp.Grant - sp.Arrive
	st.SumService += sp.Reply - sp.Grant
	st.SumTotal += sp.Reply - sp.Issue
	st.MaxTotal = max(st.MaxTotal, sp.Reply-sp.Issue)
}

// merge adds another server's totals of the same application.
func (st *SpanStats) merge(o SpanStats) {
	st.Count += o.Count
	st.Reads += o.Reads
	st.Bytes += o.Bytes
	st.SumNet += o.SumNet
	st.SumQueue += o.SumQueue
	st.SumService += o.SumService
	st.SumTotal += o.SumTotal
	st.MaxTotal = max(st.MaxTotal, o.MaxTotal)
}

// changed reports whether tick k differs from tick k-1 (k 0: from zero).
func (sm *serverSampler) changed(k int) bool {
	if sm.pts[k] != prevServer(sm.pts, k) {
		return true
	}
	base := k * sm.nApps
	for i := 0; i < sm.nApps; i++ {
		var prev AppPoint
		if k > 0 {
			prev = sm.app[base-sm.nApps+i]
		}
		if sm.app[base+i] != prev {
			return true
		}
	}
	return false
}

func prevServer(pts []ServerPoint, k int) ServerPoint {
	if k == 0 {
		return ServerPoint{}
	}
	return pts[k-1]
}

func (cm *clientSampler) changed(k int) bool {
	base := k * cm.nApps
	for i := 0; i < cm.nApps; i++ {
		var prev ClientPoint
		if k > 0 {
			prev = cm.pts[base-cm.nApps+i]
		}
		if cm.pts[base+i] != prev {
			return true
		}
	}
	return false
}
