package whatif

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/qos"
	"repro/internal/scenario"
)

// tinySpec is a deliberately small two-application scenario: one δ point,
// a few MB of I/O, fast enough to run several arms per test.
func tinySpec() scenario.Spec {
	return scenario.Spec{
		Name:    "unit-tiny",
		Servers: 2,
		DeltaS:  []float64{0},
		Apps: []scenario.App{
			{Name: "bulk", Procs: 4, IO: scenario.IO{BlockMB: 4}},
			{Name: "strided", Procs: 2, IO: scenario.IO{Pattern: "strided", BlockMB: 2, TransferKB: 256}},
		},
	}
}

// recordTinyTrace records tinySpec's δ=0 co-run and returns the IOTRACE1
// bytes.
func recordTinyTrace(t *testing.T) []byte {
	t.Helper()
	tr, _, err := scenario.Record(tinySpec(), cluster.HDD)
	if err != nil {
		t.Fatalf("recording trace: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("encoding trace: %v", err)
	}
	return buf.Bytes()
}

func mustReportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return b
}

func TestComputeScenario(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := tinySpec()
	q := &Query{Spec: &spec, Backend: cluster.HDD, Arms: []qos.Kind{qos.FairShare, qos.TokenBucket}}

	rep, hit, err := s.Compute(q)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if hit {
		t.Fatal("cold compute reported a cache hit")
	}
	if rep.Kind != "scenario" || rep.Name != "unit-tiny" || rep.Backend != "hdd" {
		t.Fatalf("report header = %s/%s/%s", rep.Kind, rep.Name, rep.Backend)
	}
	if want := []string{"bulk", "strided"}; len(rep.Apps) != 2 || rep.Apps[0] != want[0] || rep.Apps[1] != want[1] {
		t.Fatalf("apps = %v, want %v", rep.Apps, want)
	}
	if len(rep.Arms) != 3 || rep.Arms[0].Scheme != "off" || rep.Arms[1].Scheme != "fairshare" || rep.Arms[2].Scheme != "tokenbucket" {
		t.Fatalf("arm order wrong: %v", []string{rep.Arms[0].Scheme, rep.Arms[1].Scheme, rep.Arms[2].Scheme})
	}
	for i, a := range rep.Arms {
		if a.Text == "" || len(a.Points) != 1 || len(a.AloneS) != 2 {
			t.Fatalf("arm %d (%s) incomplete: text=%d bytes, %d points, %d alone", i, a.Scheme, len(a.Text), len(a.Points), len(a.AloneS))
		}
	}
	if len(rep.Pareto) != 3 || rep.Pareto[0].Scheme != "off" || rep.ParetoText == "" {
		t.Fatalf("pareto incomplete: %+v", rep.Pareto)
	}

	// Second identical query: the whole report from the cache, bytes
	// unchanged.
	rep2, hit2, err := s.Compute(q)
	if err != nil {
		t.Fatalf("Compute (warm): %v", err)
	}
	if !hit2 {
		t.Fatal("second identical query missed the cache")
	}
	if !bytes.Equal(mustReportJSON(t, rep), mustReportJSON(t, rep2)) {
		t.Fatal("cache-hit report differs from the cold one")
	}
}

func TestComputeTrace(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	raw := recordTinyTrace(t)
	q := &Query{Trace: raw, Label: "tiny.trace", Arms: []qos.Kind{qos.FairShare}}

	rep, hit, err := s.Compute(q)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if hit {
		t.Fatal("cold trace compute reported a hit")
	}
	if rep.Kind != "trace" || rep.Name != "tiny.trace" {
		t.Fatalf("report header = %s/%s", rep.Kind, rep.Name)
	}
	if len(rep.Arms) != 2 {
		t.Fatalf("arms = %d, want baseline + fairshare", len(rep.Arms))
	}
	base := rep.Arms[0]
	if base.Scheme != "off" || base.Identical == nil || !*base.Identical {
		t.Fatalf("baseline arm not a verified round trip: %+v", base)
	}
	for _, ta := range base.TraceApps {
		if ta.IF != 1 {
			t.Fatalf("baseline IF %v for %s, want 1", ta.IF, ta.Name)
		}
	}
	if rep.Pareto[0].PeakIF != 1 || rep.Pareto[0].Unfairness != 0 {
		t.Fatalf("trace pareto baseline row: %+v", rep.Pareto[0])
	}

	rep2, hit2, err := s.Compute(q)
	if err != nil || !hit2 {
		t.Fatalf("warm trace compute: hit=%v err=%v", hit2, err)
	}
	if !bytes.Equal(mustReportJSON(t, rep), mustReportJSON(t, rep2)) {
		t.Fatal("cache-hit trace report differs from the cold one")
	}

	// A different display label renders different table titles, so it is
	// a different report, but over the same two replays.
	before := s.Cache().Stats()
	_, hit3, err := s.Compute(&Query{Trace: raw, Label: "other.trace", Arms: []qos.Kind{qos.FairShare}})
	if err != nil {
		t.Fatalf("relabeled compute: %v", err)
	}
	if hit3 {
		t.Fatal("same bytes under a different label served from the cache")
	}
	if st := s.Cache().Stats(); st.Misses-before.Misses != 1 || st.Hits-before.Hits != 2 {
		t.Fatalf("relabeled compute: %d misses and %d hits, want its report missed and both replays hit",
			st.Misses-before.Misses, st.Hits-before.Hits)
	}
}

func TestComputeRejects(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := tinySpec()
	cases := []struct {
		name string
		q    *Query
	}{
		{"neither spec nor trace", &Query{}},
		{"both spec and trace", &Query{Spec: &spec, Trace: []byte("IOTRACE1")}},
		{"garbage trace", &Query{Trace: []byte("not a trace")}},
	}
	for _, tc := range cases {
		if _, _, err := s.Compute(tc.q); err == nil || !IsBadRequest(err) {
			t.Fatalf("%s: err = %v, want bad request", tc.name, err)
		}
	}
}

func TestParseArms(t *testing.T) {
	def, err := ParseArms(nil)
	if err != nil || len(def) != 3 {
		t.Fatalf("default arms = %v, %v", def, err)
	}
	if _, err := ParseArms([]string{"off"}); err == nil {
		t.Fatal("arm \"off\" accepted")
	}
	if _, err := ParseArms([]string{"fairshare", "fairshare"}); err == nil {
		t.Fatal("duplicate arm accepted")
	}
	if _, err := ParseArms([]string{"nope"}); err == nil {
		t.Fatal("unknown arm accepted")
	}
	one, err := ParseArms([]string{"controller"})
	if err != nil || len(one) != 1 || one[0] != qos.Controller {
		t.Fatalf("single arm = %v, %v", one, err)
	}
}

// overlapSpec is tinySpec on a three-point δ grid.
func overlapSpec() scenario.Spec {
	s := tinySpec()
	s.DeltaS = []float64{-0.05, 0, 0.05}
	return s
}

// variant renames s and rescales its δ grid by 1 + k/4, the way the
// whatifd-open benchmark catalogue builds its variants: the δ=0 point, the
// alone baselines and the pair co-run stay the same simulations.
func variant(s scenario.Spec, k int) scenario.Spec {
	v := s
	v.Name = fmt.Sprintf("%s-v%d", s.Name, k)
	v.DeltaS = make([]float64, len(s.DeltaS))
	for i, d := range s.DeltaS {
		v.DeltaS[i] = d * (1 + 0.25*float64(k))
	}
	return v
}

// referenceJSON computes q on a cache-less server.
func referenceJSON(t *testing.T, q *Query) []byte {
	t.Helper()
	ref := New(Config{Workers: 1, CacheBytes: -1})
	defer ref.Close()
	rep, hit, err := ref.Compute(q)
	if err != nil || hit {
		t.Fatalf("reference compute: hit=%v err=%v", hit, err)
	}
	return mustReportJSON(t, rep)
}

// TestOverlappingQueriesShareSimulations pins the content addressing: a δ
// variant of a cached query runs only its new δ points, two per arm, and
// its report is byte-identical to a cache-less server's.
func TestOverlappingQueriesShareSimulations(t *testing.T) {
	s := New(Config{Workers: 1, Jobs: 1})
	defer s.Close()
	base, v := overlapSpec(), variant(overlapSpec(), 1)
	arms, _ := ParseArms(nil)
	q1 := &Query{Spec: &base, Backend: cluster.HDD, Arms: arms}
	q2 := &Query{Spec: &v, Backend: cluster.HDD, Arms: arms}

	if _, hit, err := s.Compute(q1); err != nil || hit {
		t.Fatalf("cold query: hit=%v err=%v", hit, err)
	}
	// Per arm: 2 baselines and 3 δ points; the pair co-run is the δ=0
	// point's job. Plus the report.
	st1 := s.Cache().Stats()
	if want := uint64(1 + 4*5); st1.Misses != want {
		t.Fatalf("cold query: %d misses, want %d", st1.Misses, want)
	}
	rep, hit, err := s.Compute(q2)
	if err != nil || hit {
		t.Fatalf("variant: hit=%v err=%v", hit, err)
	}
	st2 := s.Cache().Stats()
	if got, want := st2.Misses-st1.Misses, uint64(1+4*2); got != want {
		t.Fatalf("variant: %d misses, want %d (its report and 2 new δ points per arm)", got, want)
	}
	if got, want := st2.Hits-st1.Hits, uint64(4*4); got != want {
		t.Fatalf("variant: %d hits, want %d (2 baselines, the δ=0 point and the pair per arm)", got, want)
	}
	if !bytes.Equal(mustReportJSON(t, rep), referenceJSON(t, q2)) {
		t.Fatal("variant report served over cached simulations differs from a cache-less server's")
	}
}

// TestConcurrentOverlapMatchesReference runs overlapping queries on two
// workers at once, so shared simulations coalesce in flight, and holds
// every report to a cache-less server's bytes.
func TestConcurrentOverlapMatchesReference(t *testing.T) {
	s := New(Config{Workers: 2, Jobs: 2})
	defer s.Close()
	specs := []scenario.Spec{overlapSpec(), variant(overlapSpec(), 1), variant(overlapSpec(), 2)}
	var qs []*Query
	for i := range specs {
		qs = append(qs, &Query{Spec: &specs[i], Backend: cluster.HDD, Arms: []qos.Kind{qos.FairShare}})
	}
	got := make([][]byte, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, _, err := s.Compute(q)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			got[i] = mustReportJSON(t, rep)
		}()
	}
	wg.Wait()
	for i, q := range qs {
		if !bytes.Equal(got[i], referenceJSON(t, q)) {
			t.Fatalf("query %d differs from a cache-less server's report", i)
		}
	}
	if st := s.Cache().Stats(); st.Hits == 0 {
		t.Fatalf("overlapping queries shared nothing: %+v", st)
	}
}
