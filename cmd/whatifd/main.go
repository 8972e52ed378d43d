// Command whatifd serves counterfactual what-if analysis over HTTP: POST
// an IOTRACE1 recording or an inline scenario spec and get back the
// un-mitigated baseline plus a sweep of QoS mitigation arms — per-app
// summaries, IF vectors and a Pareto report, byte-identical to the
// equivalent cmd/scenarios CLI runs.
//
// Endpoints (see SCENARIOS.md for a curl walkthrough):
//
//	POST /v1/whatif        inline scenario spec + sweep options (JSON)
//	POST /v1/whatif/trace  raw IOTRACE1 body; options in the query string
//	GET  /v1/jobs/{id}     poll an asynchronous session
//	GET  /healthz          liveness + serving counters + uptime
//	GET  /metrics          Prometheus text exposition (serving counters
//	                       and the last session's simulation results)
//
// With -debug-addr a second listener serves the Go runtime surface —
// /debug/vars (expvar, including the whatifd.health document) and
// /debug/pprof/ — kept off the service address so profiling endpoints are
// never reachable through the API port.
//
// Example:
//
//	whatifd -addr 127.0.0.1:8080 -cache-mb 256 &
//	curl -s -X POST --data-binary @run.trace \
//	    'http://127.0.0.1:8080/v1/whatif/trace?name=run.trace&arms=fairshare'
//	curl -s http://127.0.0.1:8080/metrics
//
// SIGINT/SIGTERM drain in-flight sessions before exiting 0.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/whatif"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:port)")
		cacheMB      = flag.Int("cache-mb", 256, "cache budget, MiB, shared by whole reports and the simulations under them (0 disables caching)")
		queueLen     = flag.Int("queue", 64, "session queue bound (full queue answers 429)")
		workers      = flag.Int("workers", 2, "sessions executing concurrently")
		jobs         = flag.Int("j", 0, "simulation parallelism inside one session (0 = all cores)")
		maxBodyMB    = flag.Int("max-body-mb", 64, "request body cap, MiB")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "in-flight session drain budget on shutdown")
		headerTO     = flag.Duration("read-header-timeout", 5*time.Second, "request-header read deadline (slowloris hardening)")
		debugAddr    = flag.String("debug-addr", "", "serve expvar and pprof on this host:port (empty disables)")
	)
	flag.Parse()

	if flag.NArg() > 0 {
		usageErr(fmt.Sprintf("unexpected argument %q", flag.Arg(0)))
	}
	if err := validateFlags(*addr, *cacheMB, *queueLen, *workers, *jobs, *maxBodyMB, *drainTimeout, *headerTO, *debugAddr); err != nil {
		usageErr(err.Error())
	}

	cacheBytes := int64(*cacheMB) << 20
	if *cacheMB == 0 {
		cacheBytes = -1
	}
	svc := whatif.New(whatif.Config{
		CacheBytes: cacheBytes,
		QueueLen:   *queueLen,
		Workers:    *workers,
		Jobs:       *jobs,
		MaxBody:    int64(*maxBodyMB) << 20,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whatifd:", err)
		os.Exit(1)
	}
	httpSrv := newHTTPServer(svc.Handler(), *headerTO)
	log.Printf("whatifd: listening on %s", ln.Addr())

	var dbgSrv *http.Server
	if *debugAddr != "" {
		// Published here, not in newDebugMux, so tests can build debug
		// muxes freely (expvar.Publish panics on duplicate names).
		expvar.Publish("whatifd.health", expvar.Func(func() any { return svc.Health() }))
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "whatifd:", err)
			os.Exit(1)
		}
		dbgSrv = newHTTPServer(newDebugMux(), *headerTO)
		log.Printf("whatifd: debug surface on http://%s/debug/", dln.Addr())
		go func() {
			if err := dbgSrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				log.Printf("whatifd: debug server: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		// Drain: stop accepting, let in-flight handlers finish, then run
		// every already-queued session to completion before exiting 0.
		stop()
		log.Printf("whatifd: signal received, draining")
		sdCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(sdCtx); err != nil {
			log.Printf("whatifd: shutdown: %v", err)
		}
		if dbgSrv != nil {
			dbgSrv.Close()
		}
		svc.Close()
		log.Printf("whatifd: drained, exiting")
	case err := <-serveErr:
		svc.Close()
		fmt.Fprintln(os.Stderr, "whatifd:", err)
		os.Exit(1)
	}
}

// newHTTPServer fronts a handler with the serving deadlines every listener
// gets: ReadHeaderTimeout bounds how long a connection may dribble its
// request headers, so idle half-open connections (slowloris) cannot pin
// handler goroutines forever. Bodies stay unbounded in time — trace
// uploads are large and MaxBody already caps them by size.
func newHTTPServer(h http.Handler, headerTO time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: headerTO}
}

// newDebugMux builds the -debug-addr surface: expvar under /debug/vars and
// the pprof index plus its fixed-path profiles under /debug/pprof/. A
// dedicated mux (not http.DefaultServeMux) keeps the surface explicit and
// the service port clean.
func newDebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// validateFlags range-checks every knob before anything is built, so a bad
// value surfaces as a usage error rather than a panic or a silent
// misconfiguration.
func validateFlags(addr string, cacheMB, queueLen, workers, jobs, maxBodyMB int, drain, headerTO time.Duration, debugAddr string) error {
	host, port, err := net.SplitHostPort(addr)
	switch {
	case err != nil:
		return fmt.Errorf("-addr %q must be host:port: %v", addr, err)
	case port == "":
		return fmt.Errorf("-addr %q is missing a port", addr)
	case cacheMB < 0:
		return fmt.Errorf("-cache-mb must be >= 0 (0 disables caching)")
	case queueLen < 1:
		return fmt.Errorf("-queue must be >= 1")
	case workers < 1:
		return fmt.Errorf("-workers must be >= 1")
	case jobs < 0:
		return fmt.Errorf("-j must be >= 0 (0 = all cores)")
	case maxBodyMB < 1:
		return fmt.Errorf("-max-body-mb must be >= 1")
	case drain <= 0:
		return fmt.Errorf("-drain-timeout must be positive")
	case headerTO <= 0:
		return fmt.Errorf("-read-header-timeout must be positive")
	}
	_ = host // empty host means all interfaces, which is fine
	if debugAddr != "" {
		dport := ""
		if _, dport, err = net.SplitHostPort(debugAddr); err != nil {
			return fmt.Errorf("-debug-addr %q must be host:port: %v", debugAddr, err)
		}
		if dport == "" {
			return fmt.Errorf("-debug-addr %q is missing a port", debugAddr)
		}
		// Port 0 is OS-assigned: two :0 listens land on different ports.
		if debugAddr == addr && dport != "0" {
			return fmt.Errorf("-debug-addr must differ from -addr (the debug surface stays off the API port)")
		}
	}
	return nil
}

// usageErr reports a bad invocation and exits 2, matching the
// incastprobe/iobench convention.
func usageErr(msg string) {
	fmt.Fprintln(os.Stderr, "whatifd:", msg)
	flag.Usage()
	os.Exit(2)
}
