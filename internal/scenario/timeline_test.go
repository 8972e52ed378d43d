package scenario

// Golden + conformance guard for the observability layer (internal/obs):
// the aggressor-victim builtin is run at smoke scale on HDD with sampling
// and spans attached, and the complete rendered timeline — every series
// row and the span breakdown — is pinned byte-for-byte in
// testdata/golden_timeline.tsv. The sampler can therefore never silently
// drift. The conformance test re-renders the same timeline at shard
// counts {2,4} and across GOMAXPROCS concurrent runs: all byte-identical
// to the serial oracle (run under -race by `make obs`).
//
// Regenerate after an intentional model change with:
//
//	go test ./internal/scenario -run TestGoldenTimeline -update

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

const timelineGoldenFile = "testdata/golden_timeline.tsv"

// timelineObsConfig is the pinned sampling setup of the golden: 20 ms
// ticks over a 5.12 s horizon (the smoke co-run finishes well inside it).
func timelineObsConfig() obs.Config {
	return obs.Config{Interval: 20 * sim.Millisecond, Samples: 256, SpanCap: 4096}
}

// timelineSmokeText renders the pinned timeline: through RunTimeline on
// the serial engine (shards <= 1), through core.PrepareSharded otherwise.
func timelineSmokeText(t testing.TB, shards int) string {
	t.Helper()
	s, err := Lookup("aggressor-victim")
	if err != nil {
		t.Fatal(err)
	}
	s = s.Smoke()
	var res core.RunResult
	if shards <= 1 {
		res, err = RunTimeline(s, cluster.HDD, timelineObsConfig())
	} else {
		var spec core.DeltaSpec
		if _, spec, err = s.Build(cluster.HDD); err == nil {
			x := core.PrepareSharded(spec.Cfg, spec.AppsAt(0), shards)
			x.Observe(timelineObsConfig())
			res = x.Run()
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	text, err := TimelineText(s.Name, cluster.HDD, res, true)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

func TestGoldenTimeline(t *testing.T) {
	got := timelineSmokeText(t, 1)
	if updateGolden() {
		if err := os.WriteFile(timelineGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", timelineGoldenFile, len(got))
		return
	}
	want, err := os.ReadFile(timelineGoldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("timeline drifted from %s (regenerate with -update if intentional):\n%s",
			timelineGoldenFile, firstDiff(string(want), got))
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := splitLines(want), splitLines(got)
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		out = append(out, s[:i])
		if i < len(s) {
			i++
		}
		s = s[i:]
	}
	return out
}

// TestTimelineShardConformance pins the determinism contract of the
// sampler and span collector: the rendered timeline is byte-identical
// across shard counts {1,2,4} and across GOMAXPROCS concurrent runs.
func TestTimelineShardConformance(t *testing.T) {
	want := timelineSmokeText(t, 1)
	for _, shards := range []int{2, 4} {
		if got := timelineSmokeText(t, shards); got != want {
			t.Fatalf("timeline at shards=%d diverged from the serial oracle:\n%s",
				shards, firstDiff(want, got))
		}
	}
	par := runtime.GOMAXPROCS(0)
	got := make([]string, par)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = timelineSmokeText(t, 1+i%4)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("concurrent timeline run %d diverged:\n%s", i, firstDiff(want, g))
		}
	}
}

// TestRunTimelineRejectsTrace pins the error path: trace scenarios have
// no co-run to observe.
func TestRunTimelineRejectsTrace(t *testing.T) {
	s := Spec{Name: "r", Trace: &TraceBlock{Path: "x.trace"}}
	if _, err := RunTimeline(s, cluster.HDD, timelineObsConfig()); err == nil {
		t.Fatal("RunTimeline accepted a trace scenario")
	}
}
