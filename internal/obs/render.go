package obs

import (
	"fmt"

	"repro/internal/report"
)

// RenderAppSeries renders the per-application × per-server time series:
// per-tick throughput, request rate, queue state, pipeline depth, and the
// LASSi-style risk ratio (bytes demanded of the device in the tick over
// what the backend could nominally move in one interval — > 1 means the
// application alone oversubscribes the backend).
func RenderAppSeries(title string, tl *Timeline) *report.Table {
	t := report.New(title+" — per-app series",
		"t_s", "server", "app", "thr_MBps", "ops", "qdepth", "qbytes_MB", "inflight", "risk")
	dt := tl.Interval.Seconds()
	for k := 0; k < tl.Ticks; k++ {
		ts := float64(k+1) * dt
		for s := 0; s < tl.Servers; s++ {
			for a := range tl.Apps {
				cur := tl.AppAt(k, s, a)
				var prev AppPoint
				if k > 0 {
					prev = tl.AppAt(k-1, s, a)
				}
				risk := 0.0
				if tl.CapacityBps > 0 {
					risk = (float64(cur.QueuedBytes) + float64(cur.BytesIn-prev.BytesIn)) /
						(tl.CapacityBps * dt)
				}
				t.Add(ts, s, tl.Apps[a],
					float64(cur.BytesDone-prev.BytesDone)/1e6/dt,
					cur.Requests-prev.Requests,
					cur.Queued,
					float64(cur.QueuedBytes)/1e6,
					cur.InFlight,
					risk)
			}
		}
	}
	return t
}

// RenderServerSeries renders the per-server device/NIC series: device
// throughput, utilization over the tick, device backlog, seeks, port
// drops and discarded (outage) bytes.
func RenderServerSeries(title string, tl *Timeline) *report.Table {
	t := report.New(title+" — per-server series",
		"t_s", "server", "dev_MBps", "util", "dev_q_MB", "seeks", "drops", "disc_MB")
	dt := tl.Interval.Seconds()
	for k := 0; k < tl.Ticks; k++ {
		ts := float64(k+1) * dt
		for s := 0; s < tl.Servers; s++ {
			cur := tl.ServerAt(k, s)
			var prev ServerPoint
			if k > 0 {
				prev = tl.ServerAt(k-1, s)
			}
			t.Add(ts, s,
				float64(cur.DevBytes-prev.DevBytes)/1e6/dt,
				(cur.DevBusy-prev.DevBusy).Seconds()/dt,
				float64(cur.DevQueuedBytes)/1e6,
				cur.DevSeeks-prev.DevSeeks,
				cur.PortDrops-prev.PortDrops,
				float64(cur.DiscardedBytes-prev.DiscardedBytes)/1e6)
		}
	}
	return t
}

// RenderClientSeries renders the client-side availability series (retries,
// timeouts, failures per tick). Returns nil when the whole series is zero
// — the fault-free common case — so fault-free timelines stay compact.
func RenderClientSeries(title string, tl *Timeline) *report.Table {
	any := false
	for _, p := range tl.Client {
		if p != (ClientPoint{}) {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	t := report.New(title+" — client series",
		"t_s", "app", "retries", "timeouts", "failures")
	dt := tl.Interval.Seconds()
	for k := 0; k < tl.Ticks; k++ {
		ts := float64(k+1) * dt
		for a := range tl.Apps {
			cur := tl.ClientAt(k, a)
			var prev ClientPoint
			if k > 0 {
				prev = tl.ClientAt(k-1, a)
			}
			t.Add(ts, tl.Apps[a],
				cur.Retries-prev.Retries,
				cur.Timeouts-prev.Timeouts,
				cur.Failures-prev.Failures)
		}
	}
	return t
}

// RenderSpanBreakdown renders the per-application "where did the time go"
// table: every completed request share's latency split into network,
// flow-slot queue-wait and service time. Returns nil when span collection
// was disabled.
func RenderSpanBreakdown(title string, tl *Timeline) *report.Table {
	if tl.Spans == nil {
		return nil
	}
	head := title + " — where did the time go"
	if tl.SpansDropped > 0 {
		head += fmt.Sprintf(" (%d spans dropped)", tl.SpansDropped)
	}
	t := report.New(head,
		"app", "spans", "reads", "MB", "net_s", "queue_s", "service_s", "total_s",
		"net_pct", "queue_pct", "service_pct", "avg_ms", "max_ms")
	for a, st := range tl.Spans {
		pct := func(x float64) float64 {
			if st.SumTotal <= 0 {
				return 0
			}
			return 100 * x / st.SumTotal.Seconds()
		}
		avg := 0.0
		if st.Count > 0 {
			avg = st.SumTotal.Millis() / float64(st.Count)
		}
		t.Add(tl.Apps[a], st.Count, st.Reads,
			float64(st.Bytes)/1e6,
			st.SumNet.Seconds(), st.SumQueue.Seconds(), st.SumService.Seconds(),
			st.SumTotal.Seconds(),
			pct(st.SumNet.Seconds()), pct(st.SumQueue.Seconds()), pct(st.SumService.Seconds()),
			avg, st.MaxTotal.Millis())
	}
	return t
}

// RenderTimeline composes every non-empty timeline table, in series →
// spans order — the single entry point the CLI and golden tests share.
func RenderTimeline(title string, tl *Timeline) []*report.Table {
	var out []*report.Table
	for _, t := range []*report.Table{
		RenderAppSeries(title, tl),
		RenderServerSeries(title, tl),
		RenderClientSeries(title, tl),
		RenderSpanBreakdown(title, tl),
	} {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}
