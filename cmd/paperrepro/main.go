// Command paperrepro regenerates every table and figure of Yildiz et al.,
// "On the Root Causes of Cross-Application I/O Interference in HPC Storage
// Systems" (IPDPS 2016) on the simulated platform.
//
// Usage:
//
//	paperrepro -exp all                 # everything, paper-size grids
//	paperrepro -exp fig2 -scale 8       # one figure on a 1/8-size platform
//	paperrepro -exp table1 -format tsv  # machine-readable output
//
// Experiments: table1, fig2, fig3, fig4, fig5, fig6 (includes table2),
// fig7, fig8, fig9, fig10, fig11, fig12, ablation-policy, ablation-read.
//
// -scale divides node/server counts (processes per server stay constant);
// -coarse uses 5-point δ grids instead of the paper's 9-point grids;
// -j bounds the number of concurrent simulations (default GOMAXPROCS,
// -j 1 forces the serial reference path; results are identical either way).
//
// Profiling: -cpuprofile and -memprofile write pprof profiles covering the
// selected experiments, so simulator performance work can profile a real
// campaign (where δ-point simulations dominate) instead of microbenchmarks:
//
//	paperrepro -exp fig2 -scale 4 -coarse -j 1 -cpuprofile cpu.out
//	go tool pprof cpu.out
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/qos"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintf(os.Stderr, "paperrepro: %v\n", err)
		os.Exit(1)
	}
}

func realMain() error {
	exp := flag.String("exp", "all", "experiment id (table1, fig2..fig12, table2, ablation-policy, ablation-read, all)")
	scale := flag.Int("scale", 1, "platform scale divisor (1 = paper size)")
	coarse := flag.Bool("coarse", false, "use coarse 5-point delta grids")
	format := flag.String("format", "ascii", "output format: ascii or tsv")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the campaign) to `file`")
	flag.Parse()
	if err := validateFlags(*format, *scale); err != nil {
		usageErr(err.Error())
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	kind := paper.GridFull
	if *coarse {
		kind = paper.GridCoarse
	}
	paper.Pool = core.Runner{Parallelism: *jobs}
	w := os.Stdout
	run := newRunner(w, *format, *scale, kind)

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
			"fig8", "fig9", "fig10", "fig11", "fig12", "ablation-policy", "ablation-read"}
	}
	for _, id := range ids {
		if err := run.one(strings.TrimSpace(id)); err != nil {
			return err
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // materialize the live heap before snapshotting
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	return nil
}

// validateFlags rejects the values the campaign would otherwise accept
// silently: emit prints aligned tables for any format but tsv, and a scale
// divisor below 1 runs the paper-size platform, which takes hours.
func validateFlags(format string, scale int) error {
	switch {
	case format != "ascii" && format != "tsv":
		return fmt.Errorf("-format must be ascii or tsv, got %q", format)
	case scale < 1:
		return fmt.Errorf("-scale must be >= 1 (1 = paper size), got %d", scale)
	}
	return nil
}

// usageErr reports a bad invocation and exits 2, matching the
// incastprobe/iobench/whatifd convention.
func usageErr(msg string) {
	fmt.Fprintln(os.Stderr, "paperrepro:", msg)
	flag.Usage()
	os.Exit(2)
}

type runner struct {
	w      io.Writer
	format string
	scale  int
	kind   paper.GridKind
}

func newRunner(w io.Writer, format string, scale int, kind paper.GridKind) *runner {
	return &runner{w: w, format: format, scale: scale, kind: kind}
}

func (r *runner) emit(tables ...*report.Table) {
	_ = report.Emit(r.w, r.format == "tsv", tables...)
}

func (r *runner) one(id string) error {
	start := time.Now()
	defer func() {
		fmt.Fprintf(r.w, "# %s done in %v\n\n", id, time.Since(start).Round(time.Millisecond))
	}()
	switch id {
	case "table1":
		r.emit(paper.RenderTable1(paper.Table1()))
	case "fig2":
		on := paper.Fig2(r.scale, true, r.kind)
		off := paper.Fig2(r.scale, false, r.kind)
		r.emit(
			paper.RenderAlone("Figure 2 baselines (sync ON)", on),
			paper.RenderSeries("Figure 2(a,b): contiguous, sync ON", on),
			paper.RenderAlone("Figure 2 baselines (sync OFF)", off),
			paper.RenderSeries("Figure 2(c,d): contiguous, sync OFF", off),
		)
	case "fig3":
		on := paper.Fig3(r.scale, true, r.kind)
		off := paper.Fig3(r.scale, false, r.kind)
		r.emit(
			paper.RenderAlone("Figure 3 baselines (sync ON)", on),
			paper.RenderSeries("Figure 3(a-d): strided, sync ON", on),
			paper.RenderAlone("Figure 3 baselines (sync OFF)", off),
			paper.RenderSeries("Figure 3(e,f): strided, sync OFF", off),
		)
	case "fig4":
		s := paper.Fig4(r.scale, r.kind)
		r.emit(
			paper.RenderAlone("Figure 4 baselines", s),
			paper.RenderSeries("Figure 4: writers per node", s),
		)
	case "fig5":
		on := paper.Fig5(r.scale, true, r.kind)
		off := paper.Fig5(r.scale, false, r.kind)
		r.emit(
			paper.RenderAlone("Figure 5 baselines (sync ON)", on),
			paper.RenderSeries("Figure 5(a): bandwidth, sync ON", on),
			paper.RenderAlone("Figure 5 baselines (sync OFF)", off),
			paper.RenderSeries("Figure 5(b): bandwidth, sync OFF", off),
		)
	case "fig6", "table2":
		pts, series := paper.Fig6(r.scale, []int{4, 8, 12, 24}, r.kind)
		r.emit(
			paper.RenderScaling(pts),
			paper.RenderTable2(pts),
			paper.RenderSeries("Figure 6(b): throughput delta-graph", series),
		)
	case "fig7":
		hdd := paper.Fig7(r.scale, cluster.HDD, r.kind)
		ram := paper.Fig7(r.scale, cluster.RAM, r.kind)
		r.emit(
			paper.RenderAlone("Figure 7 baselines (HDD)", hdd),
			paper.RenderSeries("Figure 7(a): targeted servers, HDD sync ON", hdd),
			paper.RenderAlone("Figure 7 baselines (RAM)", ram),
			paper.RenderSeries("Figure 7(b): targeted servers, RAM", ram),
		)
	case "fig8":
		stripes := []int64{64 << 10, 128 << 10, 256 << 10}
		on := paper.Fig8(r.scale, true, stripes, r.kind)
		off := paper.Fig8(r.scale, false, stripes, r.kind)
		r.emit(
			paper.RenderAlone("Figure 8 baselines (sync ON)", on),
			paper.RenderSeries("Figure 8(a): stripe size, sync ON", on),
			paper.RenderAlone("Figure 8 baselines (sync OFF)", off),
			paper.RenderSeries("Figure 8(b): stripe size, sync OFF", off),
		)
	case "fig9":
		blocks := []int64{64 << 10, 128 << 10, 256 << 10, 512 << 10}
		on := paper.Fig9(r.scale, true, blocks, r.kind)
		off := paper.Fig9(r.scale, false, blocks, r.kind)
		r.emit(
			paper.RenderAlone("Figure 9 baselines (sync ON)", on),
			paper.RenderSeries("Figure 9(a): request size, sync ON", on),
			paper.RenderAlone("Figure 9 baselines (sync OFF)", off),
			paper.RenderSeries("Figure 9(b): request size, sync OFF", off),
		)
	case "fig10":
		alone, contended := paper.Fig10(r.scale)
		r.emit(
			paper.RenderTrace("Figure 10(a): TCP window, independent run", alone, 800),
			paper.RenderTrace("Figure 10(b): TCP window, interfering", contended, 800),
		)
	case "fig11":
		res := paper.Fig11(r.scale)
		until := res.End.Seconds()
		r.emit(
			paper.RenderProgress("Figure 11(a): application A (first)", res.TraceA, res.TotalA, 1, until),
			paper.RenderProgress("Figure 11(b): application B (second, +10s)", res.TraceB, res.TotalB, 1, until),
		)
	case "fig12":
		s := paper.Fig12(r.scale, []int{128, 256, 352, 512, 704, 960}, r.kind)
		r.emit(
			paper.RenderAlone("Figure 12 baselines", s),
			paper.RenderSeries("Figure 12: client count sweep, HDD sync ON", s),
		)
	case "ablation-policy":
		r.emit(r.ablationPolicy())
	case "ablation-read":
		r.emit(r.ablationRead())
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}

// ablationPolicy compares server request-scheduling policies at δ=+10s —
// the server-side coordination the related work proposes (Song et al.) —
// as a mitigation sweep over PVFS's FIFO and the two coordinated orders.
func (r *runner) ablationPolicy() *report.Table {
	t := report.New("Ablation: server scheduling policy (contig, HDD sync ON, delta=+10s)",
		"policy", "A_s", "B_s", "unfairness")
	cfg := paper.Config(r.scale)
	apps := core.TwoAppSpecs(cfg, paper.ProcsPerApp(cfg), cfg.CoresPerNode, paper.ContigSpec())
	sw := paper.Pool.RunMitigationSweep(core.DeltaSpec{Cfg: cfg, Apps: apps, Deltas: core.Deltas(10)},
		[]core.Scheme{
			{Name: "fifo (PVFS)", QoS: qos.Params{Kind: qos.Off}},
			{Name: "app-ordered", QoS: qos.Params{Kind: qos.AppOrdered}},
			{Name: "round-robin", QoS: qos.Params{Kind: qos.RoundRobin}},
		})
	for i, g := range sw.Graphs {
		p := g.At(core.Deltas(10)[2])
		t.Add(sw.Schemes[i].Name, p.Elapsed[0].Seconds(), p.Elapsed[1].Seconds(), g.Unfairness())
	}
	return t
}

// ablationRead runs the read/read interference variant (the paper's future
// work) on RAM and HDD backends.
func (r *runner) ablationRead() *report.Table {
	t := report.New("Extension: read/read interference (contiguous reads, delta=0)",
		"backend", "alone_s", "contended_s", "IF")
	backends := []cluster.BackendKind{cluster.HDD, cluster.RAM}
	var specs []core.DeltaSpec
	for _, b := range backends {
		cfg := paper.Config(r.scale)
		cfg.Backend = b
		wl := workload.Spec{Pattern: workload.Contiguous, BlockBytes: paper.BlockBytes, Read: true}
		apps := core.TwoAppSpecs(cfg, paper.ProcsPerApp(cfg), cfg.CoresPerNode, wl)
		specs = append(specs, core.DeltaSpec{Cfg: cfg, Apps: apps, Deltas: core.Deltas()})
	}
	for i, g := range paper.Pool.RunDeltas(specs) {
		p := g.At(0)
		t.Add(backends[i].String(), g.Alone[0].Seconds(), p.Elapsed[0].Seconds(), p.IF[0])
	}
	return t
}
