package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/whatif"
)

func TestValidateFlags(t *testing.T) {
	type in struct {
		addr                                     string
		cacheMB, queueLen, workers, jobs, bodyMB int
		drain, headerTO                          time.Duration
		debugAddr                                string
	}
	good := in{"127.0.0.1:8080", 256, 64, 2, 0, 64, 30 * time.Second, 5 * time.Second, ""}
	cases := []struct {
		name   string
		mut    func(*in)
		wantOK bool
	}{
		{"defaults", func(*in) {}, true},
		{"all-interfaces addr", func(i *in) { i.addr = ":0" }, true},
		{"cache disabled", func(i *in) { i.cacheMB = 0 }, true},
		{"debug addr set", func(i *in) { i.debugAddr = "127.0.0.1:6060" }, true},
		{"both ephemeral ports", func(i *in) { i.addr = "127.0.0.1:0"; i.debugAddr = "127.0.0.1:0" }, true},
		{"addr without port", func(i *in) { i.addr = "127.0.0.1" }, false},
		{"addr empty port", func(i *in) { i.addr = "127.0.0.1:" }, false},
		{"addr garbage", func(i *in) { i.addr = "not an address" }, false},
		{"negative cache", func(i *in) { i.cacheMB = -1 }, false},
		{"zero queue", func(i *in) { i.queueLen = 0 }, false},
		{"zero workers", func(i *in) { i.workers = 0 }, false},
		{"negative jobs", func(i *in) { i.jobs = -1 }, false},
		{"zero body cap", func(i *in) { i.bodyMB = 0 }, false},
		{"zero drain", func(i *in) { i.drain = 0 }, false},
		{"zero header timeout", func(i *in) { i.headerTO = 0 }, false},
		{"negative header timeout", func(i *in) { i.headerTO = -time.Second }, false},
		{"debug addr without port", func(i *in) { i.debugAddr = "127.0.0.1" }, false},
		{"debug addr empty port", func(i *in) { i.debugAddr = "127.0.0.1:" }, false},
		{"debug addr equals addr", func(i *in) { i.debugAddr = i.addr }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			i := good
			tc.mut(&i)
			err := validateFlags(i.addr, i.cacheMB, i.queueLen, i.workers, i.jobs, i.bodyMB, i.drain, i.headerTO, i.debugAddr)
			if (err == nil) != tc.wantOK {
				t.Fatalf("validateFlags(%+v) = %v, want ok=%v", i, err, tc.wantOK)
			}
		})
	}
}

// TestNewHTTPServer pins the slowloris guard: every listener the daemon
// fronts gets the configured header-read deadline.
func TestNewHTTPServer(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler(), 7*time.Second)
	if srv.ReadHeaderTimeout != 7*time.Second {
		t.Fatalf("ReadHeaderTimeout = %v, want 7s", srv.ReadHeaderTimeout)
	}
	if srv.Handler == nil {
		t.Fatal("handler not installed")
	}
}

// TestDebugMux pins the -debug-addr surface: expvar JSON under /debug/vars
// and the pprof index under /debug/pprof/.
func TestDebugMux(t *testing.T) {
	ts := httptest.NewServer(newDebugMux())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/vars: status %d", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not a JSON object: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("/debug/vars is missing the standard memstats var")
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: status %d", resp.StatusCode)
	}
}

// TestServiceMuxHasNoDebugSurface pins the separation: the API handler
// never serves pprof or expvar, whatever mux pprof's import side effects
// touched.
func TestServiceMuxHasNoDebugSurface(t *testing.T) {
	svc := whatif.New(whatif.Config{})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s on the service mux: status %d, want 404", path, resp.StatusCode)
		}
	}
}
