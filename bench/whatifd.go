package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/whatif"
)

// The whatifd-open workload: an in-process what-if server behind a
// loopback HTTP listener, driven open-loop. Each iteration is one segment
// of the seeded schedule. A request costs about 14 ms of CPU on a 2.1 GHz
// Xeon vCPU, so the two workers serve about 140 requests per second;
// whatifRate offers under a fifth of that. At 50 per second queueing
// turned a noisy neighbour's slowdown into tail latencies several times
// longer, which no bound could hold from one run to the next.
const (
	whatifRate        = 25.0 // requests per second
	whatifPerSegment  = 75   // requests per segment (3 s at whatifRate)
	whatifMinSegments = 5
	whatifVariants    = 8
	whatifCacheBytes  = 256 << 10
)

// whatifMix is the request mix: 90% inline scenario sweeps drawn
// Zipf(1.1) over the catalogue, 10% trace uploads.
func whatifMix(nScenario, nTrace int) scheduleMix {
	return scheduleMix{nScenario: nScenario, nTrace: nTrace, zipfS: 1.1, traceShare: 0.1}
}

// catalogued is one request of the catalogue: its HTTP form and the
// equivalent query a reference server computes.
type catalogued struct {
	path string
	body []byte
	q    *whatif.Query
}

// whatifCatalogue builds the request catalogue: the non-fault builtins ×
// {hdd, ssd} × whatifVariants renamed, δ-rescaled variants (distinct cache
// keys of similar cost), at smoke scale with every mitigation arm, ranked
// variant-major so the hot head covers every builtin — followed by trace
// uploads of two recordings made here. It returns the scenario count.
func whatifCatalogue(tiny bool) ([]catalogued, int, error) {
	arms, err := whatif.ParseArms(nil)
	if err != nil {
		return nil, 0, err
	}
	var builtins []scenario.Spec
	for _, s := range scenario.Builtin() {
		if s.Faults == nil {
			builtins = append(builtins, s)
		}
	}
	variants := whatifVariants
	if tiny {
		variants = 1
	}
	backends := []cluster.BackendKind{cluster.HDD, cluster.SSD}
	var cat []catalogued
	for k := 0; k < variants; k++ {
		for _, b := range backends {
			for _, s := range builtins {
				v := s
				v.Name = fmt.Sprintf("%s-v%d", s.Name, k)
				v.DeltaS = make([]float64, len(s.DeltaS))
				for i, d := range s.DeltaS {
					v.DeltaS[i] = d * (1 + 0.25*float64(k))
				}
				raw, err := json.Marshal(v)
				if err != nil {
					return nil, 0, err
				}
				spec, err := scenario.Parse(raw)
				if err != nil {
					return nil, 0, err
				}
				body, err := json.Marshal(map[string]any{
					"scenario": json.RawMessage(raw), "backend": b.String(), "smoke": true,
				})
				if err != nil {
					return nil, 0, err
				}
				cat = append(cat, catalogued{path: "/v1/whatif", body: body,
					q: &whatif.Query{Spec: &spec, Backend: b, Smoke: true, Arms: arms}})
			}
		}
	}
	nScenario := len(cat)
	for _, rec := range []struct {
		name    string
		backend cluster.BackendKind
	}{{"periodic-checkpoint-4", cluster.HDD}, {"checkpoint-vs-read", cluster.SSD}} {
		s, err := scenario.Lookup(rec.name)
		if err != nil {
			return nil, 0, err
		}
		t, _, err := scenario.Record(s.Smoke(), rec.backend)
		if err != nil {
			return nil, 0, err
		}
		var buf bytes.Buffer
		if err := t.Write(&buf); err != nil {
			return nil, 0, err
		}
		label := fmt.Sprintf("%s.%s.trace", rec.name, rec.backend)
		cat = append(cat, catalogued{
			path: "/v1/whatif/trace?name=" + url.QueryEscape(label),
			body: buf.Bytes(),
			q:    &whatif.Query{Trace: buf.Bytes(), Label: label, Arms: arms},
		})
	}
	return cat, nScenario, nil
}

// whatifd is the prepared service workload.
type whatifd struct {
	seed      uint64
	perSeg    int
	rate      float64
	cat       []catalogued
	nScenario int
	srv       *whatif.Server
	ts        *httptest.Server
	client    *http.Client
	segment   int

	refOnce   sync.Once
	refs      [][]byte // reference body per catalogue entry
	refDigest string
	refErr    error
}

// newWhatifServer starts the benchmark's what-if server configuration.
func newWhatifServer() *whatif.Server {
	return whatif.New(whatif.Config{
		Workers:    min(2, runtime.NumCPU()),
		Jobs:       1,
		CacheBytes: whatifCacheBytes,
	})
}

func setupWhatif(seed uint64, size sizing) (workload, error) {
	cat, nScenario, err := whatifCatalogue(size.tiny)
	if err != nil {
		return nil, err
	}
	w := &whatifd{
		seed: seed, perSeg: whatifPerSegment, rate: whatifRate,
		cat: cat, nScenario: nScenario,
		srv: newWhatifServer(),
	}
	if size.tiny {
		w.perSeg, w.rate = 20, 10
	}
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 64},
	}
	return w, nil
}

// send posts one catalogue request and reads the whole reply.
func (w *whatifd) send(query int) (int, []byte, error) {
	c := w.cat[query]
	ctype := "application/json"
	if strings.HasPrefix(c.path, "/v1/whatif/trace") {
		ctype = "application/octet-stream"
	}
	resp, err := w.client.Post(w.ts.URL+c.path, ctype, bytes.NewReader(c.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// segmentRun drives the next segment of the schedule.
func (w *whatifd) segmentRun() ([]arrival, []reply) {
	sched := makeSchedule(w.seed, w.segment, w.perSeg, w.rate, whatifMix(w.nScenario, len(w.cat)-w.nScenario))
	w.segment++
	return sched, drive(time.Now(), sched, w.send)
}

func (w *whatifd) run() (func() outcome, []float64) {
	sched, replies := w.segmentRun()
	lat := make([]float64, len(replies))
	for i, r := range replies {
		lat[i] = ms(r.latency)
	}
	return func() outcome { return w.check(sched, replies) }, lat
}

// references computes, once and serially on a cache-less server, the body
// every catalogue request must be answered with — the report marshalled
// exactly as the service marshals it.
func (w *whatifd) references() ([][]byte, string, error) {
	w.refOnce.Do(func() {
		ref := whatif.New(whatif.Config{Workers: 1, Jobs: 1, CacheBytes: -1})
		defer ref.Close()
		var all bytes.Buffer
		for _, c := range w.cat {
			rep, _, err := ref.Compute(c.q)
			if err != nil {
				w.refErr = err
				return
			}
			b, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				w.refErr = err
				return
			}
			b = append(b, '\n')
			w.refs = append(w.refs, b)
			all.Write(b)
		}
		w.refDigest = digestOf(all.String())
	})
	return w.refs, w.refDigest, w.refErr
}

// check verifies that every request was answered 200 with its reference
// body; a refused (429) or failed request counts as failed.
func (w *whatifd) check(sched []arrival, replies []reply) outcome {
	o := outcome{attempted: len(replies)}
	refs, digest, err := w.references()
	if err != nil {
		o.failed = o.attempted
		return o
	}
	for i, r := range replies {
		if r.err != nil || r.status != http.StatusOK || !bytes.Equal(r.body, refs[sched[i].query]) {
			o.failed++
		}
	}
	o.digest = digest
	return o
}

func (w *whatifd) close() {
	w.ts.Close()
	w.srv.Close()
	w.client.CloseIdleConnections()
}
