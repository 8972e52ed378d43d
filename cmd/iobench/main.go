// Command iobench runs a single IOR-like benchmark configuration against a
// simulated platform and prints per-application results — the simulator's
// equivalent of one microbenchmark execution from the paper.
//
// Example:
//
//	iobench -apps 2 -procs 64 -pattern strided -block 64M -xfer 256K \
//	        -backend hdd -sync on -servers 4 -nodes 8 -delta 10
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		nApps    = flag.Int("apps", 2, "number of applications (1 or 2)")
		procs    = flag.Int("procs", 64, "processes per application")
		ppn      = flag.Int("ppn", 16, "processes per compute node")
		nodes    = flag.Int("nodes", 8, "compute nodes")
		servers  = flag.Int("servers", 4, "storage servers")
		backend  = flag.String("backend", "hdd", "hdd, ssd, ram or null")
		syncMode = flag.String("sync", "on", "on, off or null-aio")
		pattern  = flag.String("pattern", "contiguous", "contiguous or strided")
		block    = flag.String("block", "64M", "bytes per process")
		xfer     = flag.String("xfer", "256K", "request size (strided)")
		stripe   = flag.String("stripe", "64K", "file system stripe size")
		qd       = flag.Int("qd", 1, "outstanding requests per process")
		delta    = flag.Float64("delta", 0, "delay of the second application, seconds")
		clientGb = flag.Float64("clientgbps", 10, "client NIC, Gbit/s")
		read     = flag.Bool("read", false, "read instead of write")
	)
	flag.Parse()

	if err := validateFlags(*nApps, *procs, *ppn, *nodes, *servers, *qd, *delta, *clientGb); err != nil {
		usageErr(err.Error())
	}

	cfg := cluster.Default()
	cfg.ComputeNodes = *nodes
	cfg.Servers = *servers
	cfg.CoresPerNode = *ppn
	cfg.ClientNIC = *clientGb * 1e9 / 8
	cfg.StripeSize = parseSize(*stripe)
	var err error
	if cfg.Backend, err = cluster.ParseBackend(*backend); err != nil {
		fatal(err)
	}
	switch strings.ToLower(*syncMode) {
	case "on":
		cfg.Sync = pfs.SyncOn
	case "off":
		cfg.Sync = pfs.SyncOff
	case "null-aio", "null":
		cfg.Sync = pfs.NullAIO
	default:
		fatal(fmt.Errorf("unknown sync mode %q", *syncMode))
	}

	wl := workload.Spec{
		Pattern:      workload.Contiguous,
		BlockBytes:   parseSize(*block),
		TransferSize: parseSize(*xfer),
		QD:           *qd,
		Read:         *read,
	}
	if strings.HasPrefix(strings.ToLower(*pattern), "strid") {
		wl.Pattern = workload.Strided
	}
	if err := wl.Validate(); err != nil {
		fatal(err)
	}

	specs := core.TwoAppSpecs(cfg, *procs, *ppn, wl)
	specs[1].Start = sim.Seconds(*delta)
	use := []core.AppSpec{specs[0]}
	if *nApps > 1 {
		use = append(use, specs[1])
	}

	res := core.Prepare(cfg, use).Run()
	fmt.Printf("platform: %d nodes x %d cores, %d servers, %s backend, %s, stripe %s\n",
		cfg.ComputeNodes, cfg.CoresPerNode, cfg.Servers, cfg.Backend, cfg.Sync,
		sim.FormatBytes(cfg.StripeSize))
	fmt.Printf("workload: %s, %s/process, %d procs/app\n\n",
		wl.Pattern, sim.FormatBytes(wl.BlockBytes), *procs)
	for _, a := range res.Apps {
		fmt.Printf("app %s: start %7.1fs  phase %7.2fs  %7.2f MB/s aggregate\n",
			a.Name, a.Start.Seconds(), a.Elapsed.Seconds(), a.Throughput/1e6)
	}
	d := res.Diag
	fmt.Printf("\ndiagnostics: %d port drops, %d TCP timeouts, %d retransmitted segments\n",
		d.PortDrops, d.Timeouts, d.RetransSegs)
	fmt.Printf("             %d device seeks, %s stored, %d cache-blocked writes\n",
		d.DeviceSeeks, sim.FormatBytes(d.DeviceBytes), d.CacheBlocks)
	fmt.Printf("             %d simulation events\n", d.Events)
}

// validateFlags range-checks every numeric flag before the platform is
// built: a zero divisor (servers, ppn) or a negative count would otherwise
// panic deep in cluster/workload setup instead of printing usage, and a
// -delta past sim.MaxSeconds would wrap into a negative start time.
func validateFlags(nApps, procs, ppn, nodes, servers, qd int, delta, clientGb float64) error {
	switch {
	case nApps < 1 || nApps > 2:
		return fmt.Errorf("-apps must be 1 or 2")
	case procs < 1:
		return fmt.Errorf("-procs must be >= 1")
	case ppn < 1:
		return fmt.Errorf("-ppn must be >= 1")
	case nodes < 1:
		return fmt.Errorf("-nodes must be >= 1")
	case servers < 1:
		return fmt.Errorf("-servers must be >= 1")
	case qd < 1:
		return fmt.Errorf("-qd must be >= 1")
	case !(clientGb > 0):
		return fmt.Errorf("-clientgbps must be > 0")
	}
	return sim.CheckSeconds("-delta", delta, 0)
}

// parseSize parses "64K", "4M", "2G" or plain bytes; sizes must be
// positive. Exits with usage on a malformed value.
func parseSize(s string) int64 {
	v, err := parseSizeErr(s)
	if err != nil {
		usageErr(err.Error())
	}
	return v
}

func parseSizeErr(s string) (int64, error) {
	orig := s
	s = strings.ToUpper(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, s[:len(s)-1]
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", orig)
	}
	if v <= 0 || v > (1<<62)/mult {
		return 0, fmt.Errorf("size %q out of range (must be positive)", orig)
	}
	return v * mult, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iobench:", err)
	os.Exit(1)
}

// usageErr reports a bad flag value the way the flag package itself does:
// the complaint, then the defaults, then exit status 2.
func usageErr(msg string) {
	fmt.Fprintln(os.Stderr, "iobench:", msg)
	flag.Usage()
	os.Exit(2)
}
