package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// declared returns the metric names BENCHMARK.json lists under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// reported returns the metric names of a result, sorted.
func reported(r *result) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload at its tiny size, then the traced probe,
// and requires every output check to pass and exactly the metrics
// BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	e2e := declared(t, "end_to_end")
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := measure(w, 1, 0, tinySize)
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%d of %d operations failed", res.Failed, res.Attempted)
			}
			if got := reported(res); !reflect.DeepEqual(got, e2e) {
				t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, e2e)
			}
			for n, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", n, m.Value)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		res, err := traced(1, t.TempDir(), tinySize)
		if err != nil {
			t.Fatal(err)
		}
		if res.Attempted == 0 || res.Failed != 0 {
			t.Fatalf("%d of %d checks failed", res.Failed, res.Attempted)
		}
		if got, want := reported(res), declared(t, "per_layer"); !reflect.DeepEqual(got, want) {
			t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, want)
		}
	})
}

func TestScheduleIsSeeded(t *testing.T) {
	mix := whatifMix(160, 2)
	a := makeSchedule(7, 0, 2000, 50, mix)
	if !reflect.DeepEqual(a, makeSchedule(7, 0, 2000, 50, mix)) {
		t.Fatal("the same seed and segment gave two schedules")
	}
	if reflect.DeepEqual(a, makeSchedule(8, 0, 2000, 50, mix)) {
		t.Fatal("another seed gave the same schedule")
	}
	if reflect.DeepEqual(a, makeSchedule(7, 1, 2000, 50, mix)) {
		t.Fatal("another segment gave the same schedule")
	}
	traces := 0
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
		if x.query < 0 || x.query >= 162 {
			t.Fatalf("arrival %d asks for query %d", i, x.query)
		}
		if x.query >= 160 {
			traces++
		}
	}
	// Poisson at 50/s: 2000 arrivals span about 40 s.
	if end := a[len(a)-1].due; end < 36*time.Second || end > 44*time.Second {
		t.Errorf("2000 arrivals at 50/s end at %v", end)
	}
	if traces < 150 || traces > 250 {
		t.Errorf("%d of 2000 requests upload a trace, want about 200", traces)
	}
}

// A request is timed from when it was due, so a generator running late
// shows in its latency and lag, and a slow reply does not hold back the
// requests due after it.
func TestDriveIsOpenLoopAndTimedFromDue(t *testing.T) {
	const late = 50 * time.Millisecond
	sched := []arrival{{due: 0, query: 0}, {due: 10 * time.Millisecond, query: 1}}
	replies := drive(time.Now().Add(-late), sched, func(q int) (int, []byte, error) {
		if q == 0 {
			time.Sleep(200 * time.Millisecond)
		}
		return 200, nil, nil
	})
	if r := replies[0]; r.lag < late || r.latency < late+200*time.Millisecond {
		t.Errorf("first request: lag %v, latency %v; want lag >= %v and latency >= %v",
			r.lag, r.latency, late, late+200*time.Millisecond)
	}
	if r := replies[1]; r.latency >= 150*time.Millisecond {
		t.Errorf("second request waited for the first: latency %v", r.latency)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).Run":                  "sim",
		"repro/internal/qos/report.RenderPareto":            "qos",
		"repro/internal/cluster.Build":                      "core",
		"repro/internal/population.Generate":                "scenario",
		"runtime.gcBgMarkWorker":                            "gc",
		"runtime.futex":                                     "runtime",
		"encoding/json.(*decodeState).object":               "stdlib",
		"main.main":                                         "bench",
		"repro/internal/sim.(*heap[go.shape.int]).push":     "sim",
		"github.com/example/mod.Func":                       "other",
		"repro/internal/netsim.(*Conn).Send.func1 (inline)": "netsim",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseTop(t *testing.T) {
	out := `File: bench
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     600ms 60.00% 60.00%      600ms 60.00%  repro/internal/sim.(*Engine).Run
     300ms 30.00% 90.00%      300ms 30.00%  runtime.scanobject
     100ms 10.00%   100%      100ms 10.00%  repro/internal/netsim.(*Conn).Send (inline)
`
	share, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	for l, want := range map[string]float64{"sim": 0.6, "gc": 0.3, "netsim": 0.1, "pfs": 0} {
		if d := share[l] - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("share[%s] = %v, want %v", l, share[l], want)
		}
	}
}

// Self time is a span's duration less the union of its children.
func TestSelfTimes(t *testing.T) {
	tr := newTracer(time.Time{})
	tr.spans = []span{
		{ID: 1, Name: "iteration", Start: 0, End: 10e6},
		{ID: 2, Parent: 1, Name: "sim", Start: 1e6, End: 5e6},
		{ID: 3, Parent: 1, Name: "sim", Start: 4e6, End: 7e6},
		{ID: 4, Parent: 2, Name: "run", Start: 1e6, End: 5e6},
	}
	self := tr.selfTimes()
	for name, want := range map[string]float64{"iteration": 4, "sim": 3, "run": 4} {
		if self[name] != want {
			t.Errorf("self[%s] = %v ms, want %v", name, self[name], want)
		}
	}
}
