// Command incastprobe traces the TCP window of one client-to-server
// connection during a contended run — the simulator's tcpdump, producing
// the raw series behind the paper's Figures 10 and 11.
//
// Example:
//
//	incastprobe -delta 10 -nodes 8 -servers 2 | head -50
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		nodes   = flag.Int("nodes", 8, "compute nodes")
		servers = flag.Int("servers", 2, "storage servers")
		delta   = flag.Float64("delta", 0, "second application delay, seconds")
		app     = flag.Int("app", 1, "application to trace (0 = first, 1 = second)")
	)
	flag.Parse()

	if err := validateFlags(*nodes, *servers, *delta, *app); err != nil {
		usageErr(err.Error())
	}

	cfg := cluster.Default()
	cfg.ComputeNodes = *nodes
	cfg.Servers = *servers

	wl := workload.Spec{Pattern: workload.Contiguous, BlockBytes: 64 << 20}
	procs := *nodes / 2 * cfg.CoresPerNode
	apps := core.TwoAppSpecs(cfg, procs, cfg.CoresPerNode, wl)
	apps[1].Start = sim.Seconds(*delta)

	x := core.Prepare(cfg, []core.AppSpec{apps[0], apps[1]})
	tr := x.AttachWindowTrace(*app, 0, 0)
	res := x.Run()

	fmt.Printf("# app %s traced: conn client0 -> server0; run A=%.1fs B=%.1fs; drops=%d timeouts=%d\n",
		res.Apps[*app].Name, res.Apps[0].Elapsed.Seconds(), res.Apps[1].Elapsed.Seconds(),
		res.Diag.PortDrops, res.Diag.Timeouts)
	fmt.Println("time_s\tkind\twindow_x2048B\tacked_bytes")
	for i := range tr.Times {
		fmt.Printf("%.6f\t%c\t%.1f\t%d\n", tr.Times[i].Seconds(), tr.Kind[i], tr.Wnd[i], tr.Acked[i])
	}
}

// validateFlags range-checks the flags before anything is built: a zero
// server count or an empty half-cluster would otherwise surface as a panic
// deep in the platform constructor instead of a usage error, and a -delta
// past sim.MaxSeconds would wrap into a negative start time.
func validateFlags(nodes, servers int, delta float64, app int) error {
	switch {
	case nodes < 2:
		return fmt.Errorf("-nodes must be >= 2 (the two applications split the nodes)")
	case servers < 1:
		return fmt.Errorf("-servers must be >= 1")
	case app < 0 || app > 1:
		return fmt.Errorf("-app must be 0 or 1")
	}
	return sim.CheckSeconds("-delta", delta, 0)
}

// usageErr reports a bad flag value the way the flag package itself does:
// the complaint, then the defaults, then exit status 2.
func usageErr(msg string) {
	fmt.Fprintln(os.Stderr, "incastprobe:", msg)
	flag.Usage()
	os.Exit(2)
}
