package obs

import (
	"strconv"

	"repro/internal/qos"
	"repro/internal/sim"
)

// SpanStats totals one application's request spans over a whole run (see
// qos.SpanStats): Timeline.Spans merges every server's totals.
type SpanStats = qos.SpanStats

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
	// disabled); SpansDropped counts the spans past each server's SpanCap.
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
// applications in order: an application without a name is named by its
// index, and names past the attach-time app count are ignored. Trailing
// ticks during which no sampled counter moved anywhere on the platform are
// trimmed, keeping one flat tick so series visibly settle; a run that
// outlives the observation horizon simply ends mid-series.
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

	if c.cfg.SpanCap > 0 {
		tl.Spans = make([]SpanStats, c.nApps)
		for _, sm := range c.samplers {
			stats, dropped := sm.srv.Tel.Spans()
			tl.SpansDropped += dropped
			for a := range tl.Spans {
				tl.Spans[a].Merge(stats[a])
			}
		}
	}
	return tl
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
