package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
)

// Runner executes independent simulations on a bounded worker pool. The
// δ-graph methodology makes every run independent by construction — each
// alone baseline and each δ point builds its own cluster.Platform with its
// own sim engine, so runs share no state — and Runner exploits that
// embarrassing parallelism.
//
// Parallelism bounds the number of concurrent simulations; zero or negative
// means runtime.GOMAXPROCS(0). Parallelism 1 degenerates to a serial loop
// in submission order.
//
// Determinism: every Runner method enumerates its simulations as a job
// list, each job's result lands at the job's index, and derived quantities
// (interference factors) are computed after the pool drains, so a Runner
// produces byte-identical results at any parallelism level — only
// wall-clock time changes. Nested use (a figure fanning out series whose
// δ-graphs fan out points) is safe: each level runs its own pool, which
// briefly oversubscribes the CPU but never deadlocks and never changes
// results.
type Runner struct {
	// Parallelism is the maximum number of concurrent simulations.
	// <= 0 selects runtime.GOMAXPROCS(0).
	Parallelism int

	// Shards selects the event kernel of every simulation the runner
	// executes: 0 or 1 runs the serial engine, K >= 2 runs K
	// independently-clocked shards (cluster.BuildSharded). Results are
	// bit-identical either way; only wall-clock time changes.
	Shards int

	// Memo, when non-nil, resolves every simulation the runner executes by
	// its content (see Memo). nil runs every job, computing no key.
	Memo Memo
}

// Memo resolves a simulation by its content address. Resolve returns the
// result of run, which simulates the job addressed by key: by calling run,
// or from an earlier or concurrent Resolve of the same key. Two jobs share
// a key only when they simulate the same platform config and apps, so a
// result may be shared between jobs, Runner methods and their callers; the
// Runner hands every caller its own copy of the per-app slice. A panic in run must reach
// every caller of Resolve waiting on that key, as a panic.
type Memo interface {
	Resolve(key string, run func() RunResult) RunResult
}

// workers resolves the effective pool size for n tasks.
func (r Runner) workers(n int) int {
	p := r.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// ForEach runs fn(0) .. fn(n-1) on the pool and returns once all calls have
// finished. Execution order is unspecified beyond the pool bound; callers
// keep determinism by writing results into index-addressed slots. A serial
// pool (effective size 1) runs fn in index order.
//
// A panic in fn reaches the caller at any pool size: once a task panics no
// worker claims another, and after the running ones finish ForEach
// re-panics with the first panic's value on the calling goroutine, where
// the caller's recover can see it.
func (r Runner) ForEach(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	w := r.workers(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64 // next task index to claim
	var wg sync.WaitGroup
	var first sync.Once
	var failure any // the first worker panic's value
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					first.Do(func() { failure = v })
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if failure != nil {
		panic(failure)
	}
}

// job is one independent simulation: apps co-running on a fresh platform
// built from cfg.
type job struct {
	cfg  cluster.Config
	apps []AppSpec
}

// run simulates the job on a fresh platform of the given number of event
// engines.
func (j job) run(shards int) RunResult {
	return PrepareSharded(j.cfg, j.apps, shards).Run()
}

// jobKeys returns each job's content address: the sha256 of the JSON of
// struct{Cfg cluster.Config; Apps []AppSpec} holding the job's platform
// config and apps. Every field of both is exported, and none has a custom
// marshaller (TestJobKeySeesEveryField), so the JSON spells out everything
// the simulation reads. The shard count stays out: results are identical at
// every shard count. Jobs of one list mostly share a config, so a config
// equal to the previous job's is not encoded again.
func jobKeys(jobs []job) []string {
	keys := make([]string, len(jobs))
	var cfg []byte
	for i, j := range jobs {
		if i == 0 || j.cfg != jobs[i-1].cfg {
			cfg = mustMarshal(j.cfg)
		}
		h := sha256.New()
		h.Write([]byte(`{"Cfg":`))
		h.Write(cfg)
		h.Write([]byte(`,"Apps":`))
		h.Write(mustMarshal(j.apps))
		h.Write([]byte(`}`))
		keys[i] = hex.EncodeToString(h.Sum(nil))
	}
	return keys
}

// mustMarshal encodes plain exported data, which cannot fail.
func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("core: job key: %v", err))
	}
	return b
}

// runJobs runs every job on the pool, each on its own platform of r.Shards
// event engines, and returns the results in job order. With a Memo each job
// resolves through it by key instead. Every Runner method that simulates is
// a job list handed to runJobs and a reduction of its results.
func (r Runner) runJobs(jobs []job) []RunResult {
	res := make([]RunResult, len(jobs))
	var keys []string
	if r.Memo != nil {
		keys = jobKeys(jobs)
	}
	r.ForEach(len(jobs), func(i int) {
		if r.Memo == nil {
			res[i] = jobs[i].run(r.Shards)
			return
		}
		res[i] = r.resolve(keys[i], jobs[i])
	})
	return res
}

// resolve runs one job through the memo. The memo's result may be shared,
// so the caller gets its own copy of the per-app slice, the one part of a
// RunResult a reducer could write through (Diag is a value, and runJobs
// never observes, so Timeline is nil).
func (r Runner) resolve(key string, j job) RunResult {
	res := r.Memo.Resolve(key, func() RunResult { return j.run(r.Shards) })
	res.Apps = slices.Clone(res.Apps)
	return res
}

// RunDelta executes the alone baselines and δ points of spec concurrently
// on the pool, each distinct simulation once (see DeltaSpec). The result is
// the same at every Parallelism; see the Runner type comment for why.
func (r Runner) RunDelta(spec DeltaSpec) *DeltaGraph {
	return r.RunDeltas([]DeltaSpec{spec})[0]
}

// RunDeltas runs many independent δ-graph specs on one pool, joining every
// spec's job list into one so a figure with few series still fills all
// workers. Each spec's list holds each of its distinct simulations once
// (DeltaSpec), so a spec of two equal applications under FIFO runs one
// baseline and mirrors its ±δ points. Results preserve spec order.
func (r Runner) RunDeltas(specs []DeltaSpec) []*DeltaGraph {
	plans := make([]*deltaPlan, len(specs))
	var jobs []job
	for i, sp := range specs {
		plans[i] = sp.plan()
		jobs = append(jobs, plans[i].jobs...)
	}
	res := r.runJobs(jobs)
	graphs := make([]*DeltaGraph, len(specs))
	for i, sp := range specs {
		n := len(plans[i].jobs)
		graphs[i] = sp.graph(plans[i], res[:n])
		res = res[n:]
	}
	return graphs
}
