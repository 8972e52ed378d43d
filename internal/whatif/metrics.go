package whatif

// GET /metrics: Prometheus text exposition (format version 0.0.4),
// hand-rolled on the standard library — the service deliberately takes no
// client dependency. Two metric groups share the page:
//
//   - whatifd_*: serving counters (sessions, queue, rejections, cache),
//     the same numbers /healthz reports as JSON.
//   - whatif_last_run_*: simulation results of the most recent successful
//     session — per-app interference factors and elapsed times from the
//     baseline arm, per-arm Pareto summaries — so a scrape-based dashboard
//     can watch a sweep converge without parsing report JSON. Absent until
//     a session completes.
//
// Sample values are deterministic re-renderings of stored report data;
// only whatifd_uptime_seconds and the queue/cache gauges move on their own.

import (
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promBuf accumulates one exposition page.
type promBuf struct {
	b strings.Builder
}

// family opens a metric family with its HELP and TYPE comments. Families
// must be written exactly once, before their samples.
func (p *promBuf) family(name, typ, help string) {
	p.b.WriteString("# HELP ")
	p.b.WriteString(name)
	p.b.WriteByte(' ')
	p.b.WriteString(help)
	p.b.WriteString("\n# TYPE ")
	p.b.WriteString(name)
	p.b.WriteByte(' ')
	p.b.WriteString(typ)
	p.b.WriteByte('\n')
}

// sample appends one sample line. labels are name/value pairs; values are
// escaped per the exposition format (backslash, quote, newline).
func (p *promBuf) sample(name string, labels [][2]string, v float64) {
	p.b.WriteString(name)
	if len(labels) > 0 {
		p.b.WriteByte('{')
		for i, kv := range labels {
			if i > 0 {
				p.b.WriteByte(',')
			}
			p.b.WriteString(kv[0])
			p.b.WriteString(`="`)
			p.b.WriteString(promEscaper.Replace(kv[1]))
			p.b.WriteByte('"')
		}
		p.b.WriteByte('}')
	}
	p.b.WriteByte(' ')
	p.b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	p.b.WriteByte('\n')
}

// promEscaper escapes label values per the text exposition format.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	var p promBuf

	p.family("whatifd_uptime_seconds", "gauge", "Seconds since process start, measured on the monotonic clock.")
	p.sample("whatifd_uptime_seconds", nil, h.UptimeS)
	p.family("whatifd_sessions_total", "counter", "Sessions accepted into the queue since start.")
	p.sample("whatifd_sessions_total", nil, float64(h.Sessions))
	p.family("whatifd_active_sessions", "gauge", "Sessions executing right now.")
	p.sample("whatifd_active_sessions", nil, float64(h.Active))
	p.family("whatifd_queue_depth", "gauge", "Sessions waiting in the bounded queue.")
	p.sample("whatifd_queue_depth", nil, float64(h.QueueDepth))
	p.family("whatifd_queue_capacity", "gauge", "Session queue bound (a full queue answers 429).")
	p.sample("whatifd_queue_capacity", nil, float64(h.QueueCap))
	p.family("whatifd_rejected_total", "counter", "Sessions rejected with 429 because the queue was full.")
	p.sample("whatifd_rejected_total", nil, float64(h.Rejected))

	p.family("whatifd_cache_hits_total", "counter", "Cache hits, reports and simulations alike (resident or coalesced in-flight).")
	p.sample("whatifd_cache_hits_total", nil, float64(h.Cache.Hits))
	p.family("whatifd_cache_misses_total", "counter", "Cache misses, reports and simulations alike (computed).")
	p.sample("whatifd_cache_misses_total", nil, float64(h.Cache.Misses))
	p.family("whatifd_cache_evictions_total", "counter", "Cache LRU evictions.")
	p.sample("whatifd_cache_evictions_total", nil, float64(h.Cache.Evictions))
	p.family("whatifd_cache_entries", "gauge", "Resident cache entries, reports and simulations alike.")
	p.sample("whatifd_cache_entries", nil, float64(h.Cache.Entries))
	p.family("whatifd_cache_used_bytes", "gauge", "Bytes retained by the cache.")
	p.sample("whatifd_cache_used_bytes", nil, float64(h.Cache.UsedBytes))
	p.family("whatifd_cache_budget_bytes", "gauge", "Cache byte budget, shared by reports and simulations.")
	p.sample("whatifd_cache_budget_bytes", nil, float64(h.Cache.BudgetBytes))

	if rep := s.last.Load(); rep != nil {
		writeRunMetrics(&p, rep)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, p.b.String())
}

// writeRunMetrics renders the last successful session. The per-app series
// come from the baseline arm: the δ=0 co-run point for scenario reports,
// the verification replay for trace reports.
func writeRunMetrics(p *promBuf, rep *Report) {
	info := [][2]string{{"kind", rep.Kind}, {"name", rep.Name}}
	if rep.Backend != "" {
		info = append(info, [2]string{"backend", rep.Backend})
	}
	p.family("whatif_last_run_info", "gauge", "Identity of the most recent successful session (value is always 1).")
	p.sample("whatif_last_run_info", info, 1)

	if elapsed, ifs, ok := baselineAppSeries(rep); ok {
		p.family("whatif_last_run_app_interference_factor", "gauge",
			"Per-app interference factor of the baseline arm (co-run elapsed over alone at delta=0, or replay over baseline replay).")
		for i, name := range rep.Apps {
			p.sample("whatif_last_run_app_interference_factor", [][2]string{{"app", name}}, ifs[i])
		}
		p.family("whatif_last_run_app_elapsed_seconds", "gauge",
			"Per-app elapsed seconds of the baseline arm.")
		for i, name := range rep.Apps {
			p.sample("whatif_last_run_app_elapsed_seconds", [][2]string{{"app", name}}, elapsed[i])
		}
	}

	p.family("whatif_last_run_arm_peak_if", "gauge", "Peak interference factor per mitigation arm (Pareto row).")
	for _, row := range rep.Pareto {
		p.sample("whatif_last_run_arm_peak_if", [][2]string{{"scheme", row.Scheme}}, row.PeakIF)
	}
	p.family("whatif_last_run_arm_agg_mbps", "gauge", "Aggregate throughput per mitigation arm, MB/s (Pareto row).")
	for _, row := range rep.Pareto {
		p.sample("whatif_last_run_arm_agg_mbps", [][2]string{{"scheme", row.Scheme}}, row.AggMBps)
	}
}

// baselineAppSeries extracts the per-app (elapsed_s, IF) vectors of the
// baseline arm, false when the report carries none in the expected shape.
func baselineAppSeries(rep *Report) (elapsed, ifs []float64, ok bool) {
	if len(rep.Arms) == 0 {
		return nil, nil, false
	}
	base := rep.Arms[0]
	switch {
	case len(base.Points) > 0: // scenario kind: the δ=0 co-run point
		for _, pt := range base.Points {
			if pt.DeltaS == 0 {
				elapsed, ifs = pt.ElapsedS, pt.IF
				break
			}
		}
	case len(base.TraceApps) > 0: // trace kind: the verification replay
		for _, ta := range base.TraceApps {
			elapsed = append(elapsed, ta.ReplayedS)
			ifs = append(ifs, ta.IF)
		}
	}
	return elapsed, ifs, len(elapsed) == len(rep.Apps) && len(ifs) == len(rep.Apps)
}
