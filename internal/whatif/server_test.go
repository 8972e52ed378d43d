package whatif

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// newTestServer starts a service plus an httptest front end; both are torn
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// scenarioEnvelope builds the POST /v1/whatif body for tinySpec.
func scenarioEnvelope(t *testing.T, arms []string, wait bool) []byte {
	t.Helper()
	spec, err := json.Marshal(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]any{"scenario": json.RawMessage(spec), "backend": "hdd", "arms": arms, "wait": wait}
	b, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, out
}

func getHealth(t *testing.T, base string) Health {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decoding health: %v", err)
	}
	return h
}

// TestServerConcurrentIdentical pins the headline contract: N concurrent
// identical sessions return byte-identical JSON and share one report
// (≥ N−1 cache hits, via coalescing or residency).
func TestServerConcurrentIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	body := scenarioEnvelope(t, []string{"fairshare"}, true)

	const N = 4
	bodies := make([][]byte, N)
	caches := make([]string, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out := postJSON(t, ts.URL+"/v1/whatif", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, out)
				return
			}
			bodies[i], caches[i] = out, resp.Header.Get("X-Whatif-Cache")
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < N; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	hits := 0
	for _, c := range caches {
		if c == "hit" {
			hits++
		}
	}
	h := getHealth(t, ts.URL)
	if h.Cache.Hits < N-1 || hits < N-1 {
		t.Fatalf("cache hits = %d (headers: %d), want >= %d", h.Cache.Hits, hits, N-1)
	}
	if h.Sessions != N {
		t.Fatalf("sessions = %d, want %d", h.Sessions, N)
	}

	// The response document itself is valid JSON carrying the arm texts.
	var rep Report
	if err := json.Unmarshal(bodies[0], &rep); err != nil {
		t.Fatalf("response is not a report: %v", err)
	}
	if len(rep.Arms) != 2 || rep.Arms[1].Scheme != "fairshare" {
		t.Fatalf("unexpected arms: %+v", rep.Arms)
	}
}

// TestServerQueueFull pins the backpressure contract: a saturated session
// queue answers 429 + Retry-After immediately and recovers once drained.
func TestServerQueueFull(t *testing.T) {
	gate := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1, QueueLen: 1, gate: gate})
	async := scenarioEnvelope(t, []string{"fairshare"}, false)

	// First session: accepted, picked up by the worker, parked on the gate.
	resp, out := postJSON(t, ts.URL+"/v1/whatif", async)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first session: status %d: %s", resp.StatusCode, out)
	}
	var acc struct{ Job, Status, Poll string }
	if err := json.Unmarshal(out, &acc); err != nil || acc.Poll == "" {
		t.Fatalf("bad 202 body %s: %v", out, err)
	}
	waitStatus(t, ts.URL+acc.Poll, "running")

	// Second session fills the one queue slot; third must bounce.
	resp2, out2 := postJSON(t, ts.URL+"/v1/whatif", async)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second session: status %d: %s", resp2.StatusCode, out2)
	}
	resp3, out3 := postJSON(t, ts.URL+"/v1/whatif", async)
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third session: status %d, want 429: %s", resp3.StatusCode, out3)
	}
	if ra := resp3.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if h := getHealth(t, ts.URL); h.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", h.Rejected)
	}

	// Release the workers; both queued sessions finish and the server
	// accepts again — backpressure recovers, nothing is lost.
	close(gate)
	waitStatus(t, ts.URL+acc.Poll, "done")
	resp4, out4 := postJSON(t, ts.URL+"/v1/whatif", async)
	if resp4.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery session: status %d: %s", resp4.StatusCode, out4)
	}
}

// waitStatus polls a job URL until it reports the wanted status (or, for
// "done", until the report document arrives).
func waitStatus(t *testing.T, jobURL, want string) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(jobURL)
		if err != nil {
			t.Fatalf("GET %s: %v", jobURL, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want == "done" && resp.Header.Get("X-Whatif-Cache") != "" {
			return body
		}
		var st struct{ Status string }
		if err := json.Unmarshal(body, &st); err == nil && st.Status == want {
			return body
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", jobURL, want)
	return nil
}

// TestServerJobPoll pins the async path: 202 + poll URL, and the polled
// document is byte-identical to the synchronous one.
func TestServerJobPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, out := postJSON(t, ts.URL+"/v1/whatif", scenarioEnvelope(t, []string{"fairshare"}, true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync session: %d: %s", resp.StatusCode, out)
	}
	syncBody := out

	resp2, out2 := postJSON(t, ts.URL+"/v1/whatif", scenarioEnvelope(t, []string{"fairshare"}, false))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("async session: %d: %s", resp2.StatusCode, out2)
	}
	var acc struct{ Poll string }
	if err := json.Unmarshal(out2, &acc); err != nil {
		t.Fatal(err)
	}
	polled := waitStatus(t, ts.URL+acc.Poll, "done")
	if !bytes.Equal(syncBody, polled) {
		t.Fatal("polled report differs from the synchronous one")
	}

	if resp, _ := http.Get(ts.URL + "/v1/jobs/job-999999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

func TestServerBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec, _ := json.Marshal(tinySpec())
	qosSpec, _ := json.Marshal(map[string]any{
		"name": "x", "qos": map[string]any{"scheduler": "fairshare"},
		"apps": []map[string]any{{"procs": 1, "block_mb": 1}},
	})
	shardSpec, _ := json.Marshal(map[string]any{
		"name": "x", "shards": 2,
		"apps": []map[string]any{{"procs": 1, "block_mb": 1}},
	})
	// Times past the clock's range used to wrap into negative sim times and
	// run as if they were zero.
	farDelta := tinySpec()
	farDelta.DeltaS = []float64{0, 1e10}
	farDeltaSpec, _ := json.Marshal(farDelta)
	farThink := tinySpec()
	farThink.Apps[0].ThinkMS = 1e300
	farThinkSpec, _ := json.Marshal(farThink)
	cases := []struct {
		name, path, body string
	}{
		{"not json", "/v1/whatif", "nope"},
		{"unknown envelope field", "/v1/whatif", `{"scenario":{"name":"x"},"bogus":1}`},
		{"missing scenario", "/v1/whatif", `{"backend":"hdd"}`},
		{"unknown spec field", "/v1/whatif", `{"scenario":{"name":"x","nope":1}}`},
		{"qos block in spec", "/v1/whatif", fmt.Sprintf(`{"scenario":%s}`, qosSpec)},
		{"bad backend", "/v1/whatif", fmt.Sprintf(`{"scenario":%s,"backend":"tape"}`, spec)},
		{"bad arm", "/v1/whatif", fmt.Sprintf(`{"scenario":%s,"arms":["nope"]}`, spec)},
		{"off arm", "/v1/whatif", fmt.Sprintf(`{"scenario":%s,"arms":["off"]}`, spec)},
		{"shards in envelope", "/v1/whatif", fmt.Sprintf(`{"scenario":%s,"smoke":true,"shards":2}`, spec)},
		{"shards in spec", "/v1/whatif", fmt.Sprintf(`{"scenario":%s,"smoke":true}`, shardSpec)},
		{"delta past the clock", "/v1/whatif", fmt.Sprintf(`{"scenario":%s,"wait":true}`, farDeltaSpec)},
		{"smoke delta past the clock", "/v1/whatif", fmt.Sprintf(`{"scenario":%s,"smoke":true}`, farDeltaSpec)},
		{"think past the clock", "/v1/whatif", fmt.Sprintf(`{"scenario":%s,"wait":true}`, farThinkSpec)},
		{"garbage trace", "/v1/whatif/trace", "not a trace"},
		{"bad trace arm", "/v1/whatif/trace?arms=nope", "IOTRACE1"},
		{"bad wait", "/v1/whatif/trace?wait=maybe", "IOTRACE1"},
	}
	for _, tc := range cases {
		resp, out := postJSON(t, ts.URL+tc.path, []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, out)
			continue
		}
		var e struct{ Error string }
		if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error envelope missing: %s", tc.name, out)
		}
	}
}

// TestServerContentLengthCap proves an attacker-controlled Content-Length
// cannot preallocate memory: a 1 TiB declaration is rejected up front —
// before a single body byte is read — with no matching heap growth. The
// service-side mirror of the trace reader's preallocation fix.
func TestServerContentLengthCap(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBody: 1 << 20})
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/whatif/trace HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n",
		u.Host, int64(1)<<40)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, body)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 8<<20 {
		t.Fatalf("heap grew %d bytes handling a 1 TiB Content-Length", grown)
	}
}

// TestServerChunkedBodyCap pins the decoder-side backstop: a chunked
// upload with no Content-Length is cut off at the cap by MaxBytesReader.
func TestServerChunkedBodyCap(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBody: 4096})

	// Hide the length from the client so it sends chunked encoding.
	over := struct{ io.Reader }{bytes.NewReader(make([]byte, 8192))}
	req, err := http.NewRequest("POST", ts.URL+"/v1/whatif/trace", over)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "cap") {
		t.Fatalf("unexpected error body: %s", body)
	}
}

// TestServerTraceEndpoint runs a recorded trace through the HTTP path.
func TestServerTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	raw := recordTinyTrace(t)

	post := func() (*http.Response, []byte) {
		return postJSON(t, ts.URL+"/v1/whatif/trace?name=tiny.trace&arms=fairshare", raw)
	}
	resp, out := post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-Whatif-Cache"); got != "miss" {
		t.Fatalf("cold upload: X-Whatif-Cache = %q", got)
	}
	var rep Report
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "trace" || rep.Name != "tiny.trace" || len(rep.Arms) != 2 {
		t.Fatalf("unexpected report: kind=%s name=%s arms=%d", rep.Kind, rep.Name, len(rep.Arms))
	}

	resp2, out2 := post()
	if resp2.Header.Get("X-Whatif-Cache") != "hit" {
		t.Fatal("second upload of the same bytes missed the cache")
	}
	if !bytes.Equal(out, out2) {
		t.Fatal("cache-hit response differs from the cold one")
	}
}

// TestServerBadTraceHeader pins the upload boundary: a trace whose header
// places an app on a server or node its own platform lacks, or whose
// platform does not validate, or a record with an unknown op, a negative
// or overflowing extent or a time out of range, is a 400 rather than a
// panic inside the replay (which ran on a pool worker or proc goroutine,
// beyond runJob's recover) or a report of a run that cannot have happened,
// and the service keeps serving valid uploads afterwards. Jobs 4 keeps the
// per-session pool parallel on any host.
func TestServerBadTraceHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Jobs: 4})
	raw := recordTinyTrace(t)
	corrupt := func(edit func(*trace.Header)) []byte {
		return corruptTrace(t, raw, func(tr *trace.Trace) { edit(&tr.Header) })
	}
	// record edits the trace's first write or read record.
	record := func(edit func(*trace.Record)) []byte {
		return corruptTrace(t, raw, func(tr *trace.Trace) {
			for i := range tr.Records {
				if tr.Records[i].Op != pfs.OpBarrier {
					edit(&tr.Records[i])
					return
				}
			}
			t.Fatal("trace has no data record")
		})
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"target server out of range", corrupt(func(h *trace.Header) { h.Apps[0].TargetServers = []int{99} })},
		{"zero servers", corrupt(func(h *trace.Header) { h.Cfg.Servers = 0 })},
		{"app beyond the nodes", corrupt(func(h *trace.Header) { h.Apps[1].FirstNode = h.Cfg.ComputeNodes })},
		{"fault plan", corrupt(func(h *trace.Header) { h.Cfg.Faults = &fault.Plan{} })},
		{"negative offset", record(func(r *trace.Record) { r.Off = -4096 })},
		{"negative bytes", record(func(r *trace.Record) { r.Bytes = -4096 })},
		{"extent overflows", record(func(r *trace.Record) { r.Off = math.MaxInt64 - 100 })},
		{"unknown op", record(func(r *trace.Record) { r.Op = 9 })},
		{"negative time", record(func(r *trace.Record) { r.Time = -5 })},
		{"time past the bound", record(func(r *trace.Record) { r.Time = 1 << 62 })},
		// Out of issue order.
		{"first and last records swapped", corruptTrace(t, raw, func(tr *trace.Trace) {
			n := len(tr.Records) - 1
			tr.Records[0], tr.Records[n] = tr.Records[n], tr.Records[0]
		})},
		// In order, but the baseline replay cannot reproduce the recording.
		{"last record 1 s later", corruptTrace(t, raw, func(tr *trace.Trace) {
			tr.Records[len(tr.Records)-1].Time += sim.Second
		})},
	}
	for _, tc := range cases {
		resp, out := postJSON(t, ts.URL+"/v1/whatif/trace?name=bad.trace", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, out)
		}
	}
	resp, out := postJSON(t, ts.URL+"/v1/whatif/trace?name=tiny.trace", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid upload after the bad ones: status %d: %s", resp.StatusCode, out)
	}
}

// corruptTrace decodes raw, applies edit and re-encodes the result without
// validating it.
func corruptTrace(t *testing.T, raw []byte, edit func(*trace.Trace)) []byte {
	t.Helper()
	tr, err := trace.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	edit(tr)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServerDraining pins the shutdown half: a closed server refuses new
// sessions with 503 instead of racing the queue.
func TestServerDraining(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	resp, out := postJSON(t, ts.URL+"/v1/whatif", scenarioEnvelope(t, []string{"fairshare"}, true))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, out)
	}
}

func TestServerHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueLen: 7, CacheBytes: 123})
	h := getHealth(t, ts.URL)
	if h.Status != "ok" || h.QueueCap != 7 || h.Cache.BudgetBytes != 123 {
		t.Fatalf("health = %+v", h)
	}
}
