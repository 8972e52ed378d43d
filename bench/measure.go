package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/bench/stats"
)

// sizing scales the workloads: fullSize is the benchmark's size, tinySize
// the smoke-test size bench_test.go runs (one timed iteration of each
// workload at its smallest inputs).
type sizing struct{ tiny bool }

var (
	fullSize = sizing{}
	tinySize = sizing{tiny: true}
)

// workload is one prepared workload.
type workload interface {
	// run executes one timed iteration. It returns the untimed check of the
	// iteration's outputs and, for a workload that serves requests, the
	// latency of each request in milliseconds (nil: the iteration is the
	// one operation a user waits for).
	run() (check func() outcome, opsMS []float64)
	close()
}

// outcome is the checked result of one iteration.
type outcome struct {
	// digest is a hash of the iteration's rendered outputs; every
	// iteration of a run must reproduce the first one's.
	digest    string
	attempted int
	failed    int
}

// setup_s is the median of many set-ups, which set-ups of a few
// milliseconds need to read steadily. A run sets its workload up in
// batches, each at least minSetups set-ups and setupBatch long: one batch
// before the warm-up and one before every timed iteration, so the samples
// span the whole run. The host's speed changes over seconds (one vCPU ran
// a set-up 60% slower than the other for a while), so set-ups bunched
// into one moment read that moment's speed.
const (
	minSetups  = 5
	setupBatch = 100 * time.Millisecond
)

// setupTimer sets a workload up and records what each set-up cost.
type setupTimer struct {
	w         workloadSpec
	seed      uint64
	size      sizing
	cpu, wall []float64 // seconds per set-up
}

// once sets the workload up from a collected heap, with the collector
// off: a set-up allocates about as much as the heap goal then allows, so
// whether a collection fell inside it would otherwise change its time by
// half.
func (s *setupTimer) once() (workload, error) {
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	t0, c0 := time.Now(), cpuTime()
	x, err := s.w.setup(s.seed, s.size)
	s.cpu = append(s.cpu, (cpuTime() - c0).Seconds())
	s.wall = append(s.wall, time.Since(t0).Seconds())
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", s.w.name, err)
	}
	return x, nil
}

// batch times one batch of set-ups, discarding each workload at once, and
// leaves a collected heap behind for the iteration that follows.
func (s *setupTimer) batch() error {
	for begin, n := time.Now(), 0; n < minSetups || time.Since(begin) < setupBatch; n++ {
		x, err := s.once()
		if err != nil {
			return err
		}
		x.close()
	}
	runtime.GC()
	return nil
}

// measure runs the untraced benchmark: a set-up, one discarded warm-up
// iteration, then timed iterations until seconds have passed (and at
// least w.minIters have run), with batches of set-ups timed in between.
//
// The gated metrics are CPU times, not wall times: the host is a shared
// VM whose hypervisor takes the vCPUs away for seconds at a time, which
// stretches wall time (and open-loop latency, which queueing amplifies)
// far beyond any bound while CPU time does not count it. Wall time and
// latency are still measured and reported, ungated.
func measure(w workloadSpec, seed uint64, seconds int, size sizing) (*result, error) {
	res := &result{}
	setups := &setupTimer{w: w, seed: seed, size: size}
	wl, err := setups.once()
	if err != nil {
		return nil, err
	}
	defer wl.close()
	if err := setups.batch(); err != nil {
		return nil, err
	}

	first, ok := safeRun(wl)
	res.account(first.attempted, first.failed)
	if !ok {
		return res, nil
	}
	if want, known := expectedDigest(w.name, seed); known && !size.tiny && first.digest != want {
		fmt.Fprintf(os.Stderr, "bench: %s seed %d digest %s, expected %s\n", w.name, seed, first.digest, want)
		res.account(0, max(1, first.attempted-first.failed))
	}
	fmt.Printf("# %s digest %s\n", w.name, first.digest)

	minIters := w.minIters
	if size.tiny {
		minIters = 1
	}
	heap := startHeapSampler()
	defer heap.stop()
	var opsMS, cpuPerOp, peaks []float64
	start := time.Now()
	for iters := 0; iters < minIters || time.Since(start) < time.Duration(seconds)*time.Second; iters++ {
		if err := setups.batch(); err != nil {
			return nil, err
		}
		heap.cut() // the peak belongs to the iteration, not the set-ups
		t0, c0 := time.Now(), cpuTime()
		check, ops := wl.run()
		wall, cpu := time.Since(t0), cpuTime()-c0
		if ops == nil {
			ops = []float64{ms(wall)}
		}
		opsMS = append(opsMS, ops...)
		cpuPerOp = append(cpuPerOp, ms(cpu)/float64(len(ops)))
		o := checkSafely(check)
		if o.digest != first.digest {
			fmt.Fprintf(os.Stderr, "bench: %s iteration %d digest %s differs from the first %s\n",
				w.name, iters, o.digest, first.digest)
			o.failed = o.attempted
		}
		res.account(o.attempted, o.failed)
		peaks = append(peaks, float64(heap.cut())/1e6)
	}

	res.set("setup_s", stats.Median(setups.cpu), "s", len(setups.cpu))
	res.setUngated("setup_wall_s", stats.Median(setups.wall), "s", len(setups.wall))
	res.set("cpu_ms_per_op", stats.Median(cpuPerOp), "ms", len(cpuPerOp))
	res.set("heap_live_peak_mb", stats.Median(peaks), "MB", len(peaks))
	res.setUngated("op_p50_ms", stats.Median(opsMS), "ms", len(opsMS))
	if p := stats.TailPercentile(len(opsMS)); p > 50 {
		res.setUngated(fmt.Sprintf("op_p%g_ms", p), stats.Percentile(opsMS, p), "ms", len(opsMS))
	}
	return res, nil
}

// safeRun runs and checks one untimed iteration, turning a panic into a
// failed iteration.
func safeRun(wl workload) (o outcome, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "bench: iteration panicked: %v\n", r)
			o, ok = outcome{attempted: 1, failed: 1}, false
		}
	}()
	check, _ := wl.run()
	return check(), true
}

// checkSafely runs a check, turning a panic into a failed check.
func checkSafely(check func() outcome) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "bench: check panicked: %v\n", r)
			o = outcome{attempted: 1, failed: 1}
		}
	}()
	return check()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time so far, over every
// thread: simulation, HTTP client and server, and the garbage collector.
// Time the hypervisor gives to other machines is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// digestOf hashes rendered output.
func digestOf(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// heapSampler tracks the peak of the live heap (as of the last completed
// GC cycle), sampling it every 10 ms until stop.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peak  uint64 // since the last cut
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	h.peak = liveHeap()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-tick.C:
				live := liveHeap()
				h.mu.Lock()
				h.peak = max(h.peak, live)
				h.mu.Unlock()
			}
		}
	}()
	return h
}

// cut returns the peak since the previous cut (or the start) and starts
// the next interval from the live heap now.
func (h *heapSampler) cut() uint64 {
	live := liveHeap()
	h.mu.Lock()
	defer h.mu.Unlock()
	p := max(h.peak, live)
	h.peak = live
	return p
}

// stop ends sampling and waits for the sampling goroutine to exit.
func (h *heapSampler) stop() {
	close(h.stopc)
	<-h.done
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
