package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// cpuShareLayers are the buckets the traced run's CPU profile is split
// into, by the package of each sample's leaf frame.
var cpuShareLayers = []string{
	"sim", "netsim", "pfs", "storage", "qos", "obs", "core", "trace",
	"whatif", "scenario", "gc", "runtime", "stdlib", "bench", "other",
}

// layerOf maps a profiled function name to its bucket. Repository
// packages map to their layer (cluster, mpisim, workload and fault are
// the experiment plumbing core drives; population, report and paper feed
// the scenario layer); runtime frames split into the garbage collector
// and the rest of the runtime by name.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.Index(pkg, "["); i >= 0 {
		pkg = pkg[:i] // type arguments may name other packages
	}
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "main" || strings.HasPrefix(pkg, "repro/bench"):
		return "bench"
	case strings.HasPrefix(pkg, "repro/internal/"):
		switch name := strings.TrimPrefix(pkg, "repro/internal/"); name {
		case "sim", "netsim", "pfs", "storage", "obs", "core", "trace", "whatif", "scenario":
			return name
		case "qos", "qos/report":
			return "qos"
		case "cluster", "mpisim", "workload", "fault":
			return "core"
		case "population", "report", "paper":
			return "scenario"
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime") || strings.HasPrefix(pkg, "runtime/"):
		for _, gc := range []string{"gc", "GC", "scan", "mark", "Mark", "sweep", "grey", "wbBuf",
			"Barrier", "heapBits", "typePointers", "findObject", "spanOf", "scavenge"} {
			if strings.Contains(fn, gc) {
				return "gc"
			}
		}
		return "runtime"
	case !strings.Contains(pkg, "."):
		return "stdlib" // standard-library import paths have no dot
	}
	return "other"
}

// parseTop sums the flat samples of `go tool pprof -top` output per
// bucket (the leaf frame's package) and returns each bucket's share of the
// total.
func parseTop(out string) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(strings.NewReader(out))
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 5 && f[0] == "flat" && f[1] == "flat%" {
			header = true
			continue
		}
		if !header || len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		flat[layerOf(fn)] += d.Seconds()
		total += d.Seconds()
	}
	if !header || total == 0 {
		return nil, fmt.Errorf("no samples in pprof output")
	}
	share := map[string]float64{}
	for _, l := range cpuShareLayers {
		share[l] = flat[l] / total
	}
	return share, nil
}

// runtimeHelpers matches the runtime's copy, allocation and map routines.
// They run on behalf of their caller, so the profile is read with them
// hidden: their samples count for the frame that called them (the event
// heap's struct copies count for the kernel, an allocation for the layer
// that allocates). Garbage collection and scheduling stay runtime work.
const runtimeHelpers = `^runtime\.(duff|mem|mallocgc|newobject|growslice|makeslice|mapaccess|mapassign|` +
	`typedmemmove|typedslicecopy|nextFreeFast|heapSetType|convT|concatstring|slicebytetostring|` +
	`\(\*mspan\)\.writeHeapBits|\(\*mcache\)\.nextFree|deductAssistCredit)|^internal/runtime/maps\.`

// cpuShares attributes a CPU profile written by this binary.
func cpuShares(profile string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0",
		"-hide="+runtimeHelpers, exe, profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(string(out))
}
