// Command scenarios runs declarative N-application interference scenarios
// (see SCENARIOS.md and internal/scenario) and prints, per scenario and
// backend, the alone baselines, the δ-graph and the pairwise
// interference-factor matrix.
//
// Usage:
//
//	scenarios -list                          # show the built-in registry
//	scenarios                                # run every built-in on HDD and SSD
//	scenarios -run elephant-mice,mixed-transfer
//	scenarios -file my_scenario.json         # run a hand-written spec
//	scenarios -file examples/specs/deltagraph.json   # the paper's two-app δ-graph
//	scenarios -smoke -run all                # the CI smoke grid (tiny)
//	scenarios -backend ssd -tsv              # one backend, machine-readable
//	scenarios -qos fairshare -run aggressor-victim   # under a QoS scheduler
//	scenarios -run periodic-checkpoint-4 -trace ckpt.trace   # record a trace
//	scenarios -replay ckpt.trace             # summarize + replay + verify
//	scenarios -replay ckpt.trace -qos fairshare      # counterfactual replay
//	scenarios -faults -run server-crash-checkpoint   # healthy vs faulted
//	scenarios -timeline -run aggressor-victim        # sim-time series + spans
//
// -timeline runs each selected scenario's δ=0 co-run with the
// deterministic observability layer attached (internal/obs) and prints
// per-app × per-server time series (throughput, queue state, pipeline
// depth, LASSi-style risk), per-server device/NIC series, and the
// per-app "where did the time go" span breakdown (network vs queue-wait
// vs service). -timeline-interval/-timeline-samples size the series,
// -timeline-spans how many spans each server counts.
//
// -faults runs each selected fault scenario (one with a "faults" block —
// a deterministic timeline of server crashes, degraded devices and link
// flaps, see SCENARIOS.md) twice: once with the plan stripped and once as
// given, each at the δ=0 point of a plain run, and prints per-app
// IF-under-faults plus the availability ledger (downtime, discarded bytes,
// RPC timeouts, retries, goodput vs offered).
//
// -qos runs every selected scenario with the named server-side QoS
// scheduler (off, fairshare, tokenbucket, controller) at its calibrated
// defaults, overriding any qos block in the spec. -smoke, -qos and
// -backend apply the same way in every mode, including -faults,
// -timeline and -trace; a replay keeps its recorded platform, so only
// -qos reaches it. `make mitigate` runs the smoke grid once per
// scheduler; the what-if service (cmd/whatifd) sweeps all schedulers side
// by side and reports the per-scenario Pareto view as pareto_text.
//
// -trace records one selected scenario's δ=0 co-run (on -backend, default
// hdd) to a request-level trace file and prints the Darshan-style per-app
// summary. -replay reads such a file, prints the summary, replays it on the
// recorded platform and verifies bit-identical per-app completion times
// (exit status 1 on divergence); with -qos the replay runs under that
// scheduler instead — a counterfactual, so verification is skipped. A
// scenario file with a "trace" block (see SCENARIOS.md) is the declarative
// spelling of -replay.
//
// Every alone baseline, δ point, pairwise co-run and fault twin is an
// independent simulation; -j bounds how many run concurrently (default
// GOMAXPROCS).
// Output is identical at any -j.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/whatif"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "scenarios: %v\n", err)
		os.Exit(1)
	}
}

// realMain runs the mode that args select and writes its report to stdout.
func realMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		list     = fs.Bool("list", false, "list built-in scenarios and exit")
		run      = fs.String("run", "all", "comma-separated built-in scenario names, or all")
		file     = fs.String("file", "", "run a scenario spec from a JSON `file` instead of the registry")
		backend  = fs.String("backend", "", "run on one backend only (hdd, ssd, ram, null); default: the scenario's axis (hdd+ssd)")
		smoke    = fs.Bool("smoke", false, "shrink every scenario to the CI smoke grid")
		qosName  = fs.String("qos", "", "run under a server-side QoS `scheduler` (off, fairshare, tokenbucket, controller), overriding the spec")
		traceOut = fs.String("trace", "", "record the selected scenario's delta=0 co-run to a trace `file` and summarize it")
		replayIn = fs.String("replay", "", "summarize and replay a recorded trace `file`, verifying bit-identical completions")
		faults   = fs.Bool("faults", false, "run each selected fault scenario's healthy-vs-faulted comparison (the scenario needs a faults block)")
		timeline = fs.Bool("timeline", false, "dump each selected scenario's delta=0 co-run as deterministic sim-time series plus span breakdown (internal/obs)")
		tlEvery  = fs.Duration("timeline-interval", 100*time.Millisecond, "sampling `period` of -timeline on the simulated clock")
		tlCount  = fs.Int("timeline-samples", 600, "max samples per -timeline series (observation horizon = interval * samples)")
		tlSpans  = fs.Int("timeline-spans", 1<<16, "spans each server counts under -timeline; later ones are dropped (0 disables spans)")
		tsv      = fs.Bool("tsv", false, "TSV output instead of aligned tables")
		jobs     = fs.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = serial)")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits before Parse returns

	if *qosName != "" {
		if _, err := qos.ParseKind(*qosName); err != nil {
			return err
		}
	}

	if *list {
		t := report.New("built-in scenarios", "name", "apps", "backend", "description")
		for _, s := range scenario.Builtin() {
			axis := s.Backend
			if axis == "" {
				axis = "hdd+ssd"
			}
			t.Add(s.Name, len(s.Apps), axis, s.Description)
		}
		for _, s := range scenario.FleetBuiltin() {
			axis := s.Backend
			if axis == "" {
				axis = "hdd+ssd"
			}
			t.Add(s.Name, s.Population.Count, axis, s.Description)
		}
		return report.Emit(stdout, *tsv, t)
	}

	o := overrides{smoke: *smoke, qos: *qosName}
	if *backend != "" {
		b, err := cluster.ParseBackend(*backend)
		if err != nil {
			return err
		}
		o.backends = []cluster.BackendKind{b}
	}

	if *replayIn != "" {
		return replayTrace(stdout, *replayIn, o, *tsv)
	}

	specs, err := selectSpecs(*file, *run)
	if err != nil {
		return err
	}

	if *traceOut != "" {
		if len(specs) != 1 {
			return fmt.Errorf("-trace records one scenario; select it with -run name or -file (got %d)", len(specs))
		}
		// Under -qos the recording runs under the scheduler too; the trace
		// header embeds the QoS-enabled platform, so replays reproduce it.
		s, _, err := o.apply(specs[0])
		if err != nil {
			return err
		}
		b := cluster.HDD
		if o.backends != nil {
			b = o.backends[0]
		}
		return recordTrace(stdout, s, b, *traceOut, *tsv)
	}

	pool := core.Runner{Parallelism: *jobs}
	if *faults {
		return runFaults(stdout, specs, o, pool, *tsv)
	}

	if *timeline {
		ocfg := obs.Config{
			Interval: sim.Time(tlEvery.Nanoseconds()),
			Samples:  *tlCount,
			SpanCap:  *tlSpans,
		}
		return runTimelines(stdout, specs, o, ocfg, *tsv)
	}

	var all []*scenario.Result
	var fleets []*scenario.FleetResult
	for _, s := range specs {
		s, axis, err := o.apply(s)
		if err != nil {
			return err
		}
		if s.Trace != nil {
			// A declarative trace scenario replays its recording.
			if err := emitReplay(stdout, s, *tsv); err != nil {
				return err
			}
			continue
		}
		for _, b := range axis {
			if s.Population != nil {
				// A population scenario runs through the fleet summarizer —
				// a δ sweep plus full pairwise matrix is infeasible at fleet
				// tenant counts.
				f, err := scenario.RunFleet(s, b, pool)
				if err != nil {
					return err
				}
				fleets = append(fleets, f)
				if err := report.Emit(stdout, *tsv,
					scenario.RenderFleetClasses(f),
					scenario.RenderFleetSlowdown(f),
					scenario.RenderFleetPairs(f, 10)); err != nil {
					return err
				}
				continue
			}
			res, err := scenario.Run(s, b, pool)
			if err != nil {
				return err
			}
			all = append(all, res)
			// Shared with the what-if service: the HTTP API embeds this
			// exact byte stream, so the two cannot drift apart.
			text, err := whatif.ScenarioRunText(res, *tsv)
			if err != nil {
				return err
			}
			if _, err := io.WriteString(stdout, text); err != nil {
				return err
			}
		}
	}
	if len(fleets) > 0 {
		if err := report.Emit(stdout, *tsv, scenario.RenderFleetSummary(fleets)); err != nil {
			return err
		}
	}
	if len(all) == 0 { // e.g. only trace replays or fleets ran
		return nil
	}
	text, err := whatif.ScenarioSummaryText(all, *tsv)
	if err != nil {
		return err
	}
	_, err = io.WriteString(stdout, text)
	return err
}

// overrides are the run-wide flags every mode applies to each selected
// spec: -smoke, -qos and -backend.
type overrides struct {
	smoke    bool
	qos      string
	backends []cluster.BackendKind // nil: each spec's own axis
}

// apply returns the spec as a mode runs it — shrunk under -smoke, its qos
// block replaced under -qos — and the backends to run it on: -backend if
// given, else the spec's own axis. A trace scenario keeps its recording;
// only the qos override reaches its replay.
func (o overrides) apply(s scenario.Spec) (scenario.Spec, []cluster.BackendKind, error) {
	if o.smoke {
		s = s.Smoke()
	}
	if o.qos != "" {
		s.QoS = &scenario.QoS{Scheduler: o.qos}
	}
	if o.backends != nil {
		return s, o.backends, nil
	}
	axis, err := s.Backends()
	return s, axis, err
}

// runFaults runs every selected fault scenario's healthy-vs-faulted
// comparison on pool and prints the per-app IF-under-faults table plus the
// availability ledger. Selected scenarios without a faults block are an
// error: asking for a fault comparison of a fault-free scenario is a typo,
// not a no-op.
func runFaults(w io.Writer, specs []scenario.Spec, o overrides, pool core.Runner, tsv bool) error {
	ran := 0
	for _, s := range specs {
		if s.Faults == nil {
			if len(specs) == 1 {
				return fmt.Errorf("scenario %q has no faults block; see SCENARIOS.md or -run %s",
					s.Name, strings.Join(scenario.FaultNames(), ","))
			}
			continue // "-run all -faults" means "every fault scenario"
		}
		s, axis, err := o.apply(s)
		if err != nil {
			return err
		}
		for _, b := range axis {
			fc, err := scenario.CompareFaults(s, b, pool)
			if err != nil {
				return err
			}
			if err := report.Emit(w, tsv,
				scenario.RenderFaults(s, b, fc),
				scenario.RenderAvailability(s, b, fc)); err != nil {
				return err
			}
			ran++
		}
	}
	if ran == 0 {
		return fmt.Errorf("no selected scenario has a faults block (built-ins: %s)",
			strings.Join(scenario.FaultNames(), ", "))
	}
	return nil
}

// runTimelines runs every selected scenario's δ=0 co-run with the
// observability layer attached and prints the rendered timeline. Trace
// scenarios are skipped (no co-run to observe) unless explicitly the only
// selection, which is an error rather than silence.
func runTimelines(w io.Writer, specs []scenario.Spec, o overrides, ocfg obs.Config, tsv bool) error {
	if err := ocfg.Validate(); err != nil {
		return err
	}
	for _, s := range specs {
		if s.Trace != nil {
			if len(specs) == 1 {
				return fmt.Errorf("scenario %q replays a recording; -timeline needs a co-run", s.Name)
			}
			continue
		}
		s, axis, err := o.apply(s)
		if err != nil {
			return err
		}
		for _, b := range axis {
			res, err := scenario.RunTimeline(s, b, ocfg)
			if err != nil {
				return err
			}
			text, err := scenario.TimelineText(s.Name, b, res, tsv)
			if err != nil {
				return err
			}
			if _, err := io.WriteString(w, text); err != nil {
				return err
			}
		}
	}
	return nil
}

// selectSpecs resolves the -file / -run selection into an ordered spec list.
func selectSpecs(file, run string) ([]scenario.Spec, error) {
	if file != "" {
		s, err := scenario.Load(file)
		if err != nil {
			return nil, err
		}
		return []scenario.Spec{s}, nil
	}
	if run == "all" || run == "" {
		return scenario.Builtin(), nil
	}
	var out []scenario.Spec
	for _, name := range strings.Split(run, ",") {
		s, err := scenario.Lookup(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// recordTrace records the scenario's δ=0 co-run on one backend, writes the
// trace file and prints the Darshan-style summary.
func recordTrace(w io.Writer, s scenario.Spec, b cluster.BackendKind, path string, tsv bool) error {
	t, _, err := scenario.Record(s, b)
	if err != nil {
		return err
	}
	if err := t.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(w, "recorded %s on %s: %d requests from %d apps -> %s\n\n",
		s.Name, b, len(t.Records), len(t.Header.Apps), path)
	sums := trace.Summarize(t)
	return report.Emit(w, tsv,
		trace.RenderSummary(fmt.Sprintf("%s on %s: Darshan-style per-app summary", s.Name, b), sums),
		trace.RenderSizeHist(fmt.Sprintf("%s on %s: request-size histogram", s.Name, b), sums))
}

// replayTrace summarizes and replays a trace file. On an unmodified
// platform the replay is verified bit-identical to the recording (non-nil
// error on divergence); under -qos it is a counterfactual and only
// reported.
func replayTrace(w io.Writer, path string, o overrides, tsv bool) error {
	spec, _, err := o.apply(scenario.Spec{Name: "replay:" + path, Trace: &scenario.TraceBlock{Path: path}})
	if err != nil {
		return err
	}
	return emitReplay(w, spec, tsv)
}

// emitReplay executes one trace scenario and prints summary plus round-trip
// tables, failing on divergence unless the replay is counterfactual. The
// rendering is shared with the what-if service (whatif.ReplayText), which
// embeds the same bytes in its JSON responses.
func emitReplay(w io.Writer, s scenario.Spec, tsv bool) error {
	rep, t, err := scenario.Replay(s)
	if err != nil {
		return err
	}
	title := s.Trace.Path
	var counterfactualQoS string
	if s.QoS != nil {
		counterfactualQoS = s.QoS.Scheduler
	}
	text, err := whatif.ReplayText(title, counterfactualQoS, rep, t, tsv)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(w, text); err != nil {
		return err
	}
	if counterfactualQoS == "" && !rep.Identical() {
		return fmt.Errorf("replay of %s diverged from the recording (see the round-trip table)", title)
	}
	return nil
}
