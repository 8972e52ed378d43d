package whatif

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
)

// Config sizes one what-if server. Zero values select serving defaults.
type Config struct {
	// CacheBytes is the baseline cache budget (default 256 MiB; <= -1
	// disables caching; 0 selects the default).
	CacheBytes int64
	// QueueLen bounds the session queue; a full queue answers HTTP 429
	// with Retry-After instead of buffering without limit (default 64).
	QueueLen int
	// Workers is the number of sessions executing concurrently (default 2).
	Workers int
	// Jobs is the core.Runner parallelism inside one session
	// (0 = GOMAXPROCS).
	Jobs int
	// MaxBody caps request bodies — trace uploads and scenario specs —
	// before any decoding (default 64 MiB).
	MaxBody int64

	// gate, when non-nil, blocks every session start until the channel is
	// closed — a deterministic brake for queue/backpressure tests.
	gate <-chan struct{}
}

// Server is the what-if service: HTTP handlers in front of a bounded
// session queue, a worker pool executing sessions, and the baseline cache.
// Create with New, expose via Handler, stop with Close (which drains every
// queued session before returning — the graceful-shutdown half of
// cmd/whatifd's SIGTERM handling).
type Server struct {
	cfg   Config
	cache *Cache
	mux   *http.ServeMux
	queue chan *job
	wg    sync.WaitGroup

	drainMu  sync.RWMutex // guards draining against submit
	draining bool
	closed   sync.Once

	mu        sync.Mutex // guards jobs and per-job state transitions
	jobs      map[string]*job
	doneOrder []string

	nextID   atomic.Uint64
	sessions atomic.Uint64
	rejected atomic.Uint64
	active   atomic.Int64

	started time.Time              // process-local; UptimeS is monotonic via time.Since
	last    atomic.Pointer[Report] // most recent successful session, for /metrics
}

// job is one queued session.
type job struct {
	id   string
	q    *Query
	wait bool
	done chan struct{}

	// Guarded by Server.mu until done is closed, immutable after.
	status   string // "queued", "running", "done", "failed"
	result   []byte
	cacheHit bool
	err      error
}

// maxDoneJobs bounds the finished-job table; the oldest results fall off.
const maxDoneJobs = 4096

// New creates a server and starts its session workers. Callers own the
// lifecycle: serve Handler() somewhere, then Close() to drain.
func New(cfg Config) *Server {
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 256 << 20
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 64 << 20
	}
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheBytes),
		mux:     http.NewServeMux(),
		queue:   make(chan *job, cfg.QueueLen),
		jobs:    make(map[string]*job),
		started: time.Now(),
	}
	s.mux.HandleFunc("POST /v1/whatif", s.handleScenario)
	s.mux.HandleFunc("POST /v1/whatif/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the baseline cache (stats for health checks and tests).
func (s *Server) Cache() *Cache { return s.cache }

// Close drains the server: no new sessions are accepted (submit answers
// 503), every already-queued session runs to completion, and the workers
// exit. Safe to call more than once. Callers fronting the server with an
// http.Server should Shutdown that first so no handler is mid-submit.
func (s *Server) Close() {
	s.closed.Do(func() {
		s.drainMu.Lock()
		s.draining = true
		s.drainMu.Unlock()
		close(s.queue)
		s.wg.Wait()
	})
}

// submit offers a job to the bounded queue without blocking. The RLock
// pairs with Close's exclusive section so a submit can never race the
// queue close.
func (s *Server) submit(j *job) (accepted, draining bool) {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false, true
	}
	select {
	case s.queue <- j:
		return true, false
	default:
		return false, false
	}
}

// worker drains the session queue until Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one session. Panics (impossible for validated queries,
// but sims panic on contract violations) fail the job instead of killing
// the daemon.
func (s *Server) runJob(j *job) {
	s.active.Add(1)
	defer s.active.Add(-1)
	s.mu.Lock()
	j.status = "running"
	s.mu.Unlock()
	if s.cfg.gate != nil {
		<-s.cfg.gate
	}
	defer func() {
		if r := recover(); r != nil {
			s.finish(j, nil, false, fmt.Errorf("whatif: session failed: %v", r))
		}
	}()
	rep, hit, err := s.Compute(j.q)
	if err != nil {
		s.finish(j, nil, false, err)
		return
	}
	s.last.Store(rep) // reports are immutable once computed; /metrics reads this
	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		s.finish(j, nil, false, err)
		return
	}
	s.finish(j, append(body, '\n'), hit, nil)
}

// finish publishes a job's outcome and prunes the oldest finished jobs.
func (s *Server) finish(j *job, result []byte, hit bool, err error) {
	s.mu.Lock()
	j.result, j.cacheHit, j.err = result, hit, err
	if err != nil {
		j.status = "failed"
	} else {
		j.status = "done"
	}
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > maxDoneJobs {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
	s.mu.Unlock()
	close(j.done)
}

// scenarioRequest is the POST /v1/whatif envelope.
type scenarioRequest struct {
	// Scenario is a scenario spec (SCENARIOS.md format, strict).
	Scenario json.RawMessage `json:"scenario"`
	// Backend picks the single backend to run on (default: the spec's
	// pinned backend, else hdd).
	Backend string `json:"backend,omitempty"`
	// Smoke shrinks the scenario to the CI smoke grid.
	Smoke bool `json:"smoke,omitempty"`
	// Arms names the mitigation schemes to sweep (default: fairshare,
	// tokenbucket, controller). "off" always runs as the baseline.
	Arms []string `json:"arms,omitempty"`
	// Wait selects the synchronous fast path (response = the report).
	// Default: true for smoke-sized requests, false otherwise (202 + job
	// ID to poll).
	Wait *bool `json:"wait,omitempty"`
}

// handleScenario serves POST /v1/whatif: an inline scenario spec plus
// sweep options.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	var env scenarioRequest
	if err := dec.Decode(&env); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(env.Scenario) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing \"scenario\" (an inline scenario spec; POST traces to /v1/whatif/trace)"))
		return
	}
	spec, err := scenario.Parse(env.Scenario)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	switch {
	case spec.QoS != nil:
		err = fmt.Errorf("scenario %q: the arms list defines the schemes; drop the qos block", spec.Name)
	case spec.Trace != nil:
		err = fmt.Errorf("scenario %q: POST recorded traces to /v1/whatif/trace", spec.Name)
	case spec.Faults != nil, spec.Population != nil:
		err = fmt.Errorf("scenario %q: fault and population scenarios are not served yet", spec.Name)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	bname := env.Backend
	if bname == "" {
		bname = spec.Backend
	}
	if bname == "" {
		bname = "hdd"
	}
	backend, err := cluster.ParseBackend(bname)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	arms, err := ParseArms(env.Arms)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	wait := env.Smoke
	if env.Wait != nil {
		wait = *env.Wait
	}
	q := &Query{Spec: &spec, Backend: backend, Smoke: env.Smoke, Arms: arms}
	s.dispatch(w, q, wait)
}

// handleTrace serves POST /v1/whatif/trace: a raw IOTRACE1 body with
// options in the query string (?name=label&arms=a,b&wait=0).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	name := r.URL.Query().Get("name")
	if len(name) > 256 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("name longer than 256 bytes"))
		return
	}
	var names []string
	if raw := r.URL.Query().Get("arms"); raw != "" {
		for _, n := range strings.Split(raw, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	arms, err := ParseArms(names)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	wait := true // replays are single simulations: the synchronous fast path
	if raw := r.URL.Query().Get("wait"); raw != "" {
		if wait, err = strconv.ParseBool(raw); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("wait: %w", err))
			return
		}
	}
	q := &Query{Trace: body, Label: name, Arms: arms}
	s.dispatch(w, q, wait)
}

// readBody enforces the request-body cap twice over: the declared
// Content-Length is rejected before a single byte is read (an
// attacker-controlled length cannot reserve memory — the service-side
// mirror of the trace reader's preallocation fix), and MaxBytesReader
// backstops chunked or lying encodings while reading.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.ContentLength > s.cfg.MaxBody {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body %d bytes exceeds the %d byte cap", r.ContentLength, s.cfg.MaxBody))
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d byte cap", s.cfg.MaxBody))
		} else {
			httpError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		}
		return nil, false
	}
	return body, true
}

// dispatch queues one session, then either waits for its result (the
// synchronous fast path) or answers 202 with a poll URL. A full queue is
// explicit backpressure: 429 plus Retry-After, nothing buffered.
func (s *Server) dispatch(w http.ResponseWriter, q *Query, wait bool) {
	j := &job{
		id:     fmt.Sprintf("job-%d", s.nextID.Add(1)),
		q:      q,
		wait:   wait,
		done:   make(chan struct{}),
		status: "queued",
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	accepted, draining := s.submit(j)
	if !accepted {
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		if draining {
			httpError(w, http.StatusServiceUnavailable, fmt.Errorf("server is draining"))
			return
		}
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, fmt.Errorf("session queue full (%d queued), retry later", cap(s.queue)))
		return
	}
	s.sessions.Add(1)
	if !wait {
		writeJSON(w, http.StatusAccepted, map[string]string{
			"job":    j.id,
			"status": "queued",
			"poll":   "/v1/jobs/" + j.id,
		})
		return
	}
	<-j.done
	s.writeJobResult(w, j)
}

// handleJob serves GET /v1/jobs/{id}: the report once done, a status
// document while queued or running.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var status string
	if ok {
		status = j.status
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	if status != "done" && status != "failed" {
		writeJSON(w, http.StatusOK, map[string]string{"job": id, "status": status})
		return
	}
	s.writeJobResult(w, j)
}

// writeJobResult emits a finished job: the report bytes verbatim (so the
// synchronous and polled paths serve identical documents) with the cache
// disposition in a header, or the error.
func (s *Server) writeJobResult(w http.ResponseWriter, j *job) {
	if j.err != nil {
		code := http.StatusInternalServerError
		if IsBadRequest(j.err) {
			code = http.StatusBadRequest
		}
		httpError(w, code, j.err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if j.cacheHit {
		w.Header().Set("X-Whatif-Cache", "hit")
	} else {
		w.Header().Set("X-Whatif-Cache", "miss")
	}
	w.Write(j.result)
}

// Health is the /healthz document: liveness plus the serving counters.
// StartedAt and UptimeS extend the original document; every pre-existing
// field keeps its name, type and order, so old scrapers parse unchanged.
type Health struct {
	Status     string     `json:"status"`
	Sessions   uint64     `json:"sessions"`
	Active     int64      `json:"active"`
	QueueDepth int        `json:"queue_depth"`
	QueueCap   int        `json:"queue_cap"`
	Rejected   uint64     `json:"rejected"`
	Cache      CacheStats `json:"cache"`
	// StartedAt is the process start in RFC 3339 UTC (wall clock).
	StartedAt string `json:"started_at"`
	// UptimeS is seconds since StartedAt measured on the monotonic clock
	// (time.Since), so it keeps advancing through wall-clock steps.
	UptimeS float64 `json:"uptime_s"`
}

// Health snapshots the serving counters — the /healthz document, also
// published through expvar by cmd/whatifd.
func (s *Server) Health() Health {
	return Health{
		Status:     "ok",
		Sessions:   s.sessions.Load(),
		Active:     s.active.Load(),
		QueueDepth: len(s.queue),
		QueueCap:   cap(s.queue),
		Rejected:   s.rejected.Load(),
		Cache:      s.cache.Stats(),
		StartedAt:  s.started.UTC().Format(time.RFC3339Nano),
		UptimeS:    time.Since(s.started).Seconds(),
	}
}

// handleHealth serves GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

// httpError answers with a JSON error envelope.
func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeJSON marshals v with the response indentation the report uses.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(w, "{\"error\": %q}\n", err.Error())
		return
	}
	w.Write(append(b, '\n'))
}
