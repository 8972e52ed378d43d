package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/whatif"
)

// TestServeSmoke is the end-to-end serving contract, run by `make serve`:
// build the daemon and the CLI, record a trace, then prove every arm text
// the HTTP API returns is byte-identical to the equivalent `cmd/scenarios`
// stdout — cold and cache-hit alike — and that SIGTERM drains to exit 0.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e serve smoke: skipped with -short")
	}
	dir := t.TempDir()
	whatifd := filepath.Join(dir, "whatifd")
	scenariosBin := filepath.Join(dir, "scenarios")
	build(t, whatifd, "./cmd/whatifd", "-race")
	build(t, scenariosBin, "./cmd/scenarios")

	// Record the smoke checkpoint trace the replay comparisons use.
	tracePath := filepath.Join(dir, "rec.trace")
	run(t, scenariosBin, "-smoke", "-backend", "hdd", "-run", "periodic-checkpoint-4", "-trace", tracePath)

	// CLI ground truth, one invocation per arm.
	arms := []string{"off", "fairshare", "tokenbucket", "controller"}
	wantScenario := make(map[string]string, len(arms))
	for _, a := range arms {
		wantScenario[a] = run(t, scenariosBin, "-tsv", "-smoke", "-backend", "hdd", "-run", "aggressor-victim", "-qos", a)
	}
	wantReplayBase := run(t, scenariosBin, "-tsv", "-replay", tracePath)
	wantReplayFS := run(t, scenariosBin, "-tsv", "-replay", tracePath, "-qos", "fairshare")

	baseURL := startDaemon(t, whatifd)

	// Scenario session: the builtin spec inline, smoke-shrunk server-side.
	spec, err := scenario.Lookup("aggressor-victim")
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	env, err := json.Marshal(map[string]any{
		"scenario": json.RawMessage(specJSON),
		"backend":  "hdd",
		"smoke":    true,
		"arms":     []string{"fairshare", "tokenbucket", "controller"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := post(t, baseURL+"/v1/whatif", "application/json", env)
	if len(rep.Arms) != len(arms) {
		t.Fatalf("scenario session returned %d arms, want %d", len(rep.Arms), len(arms))
	}
	for i, a := range arms {
		if rep.Arms[i].Scheme != a {
			t.Fatalf("arm %d is %q, want %q", i, rep.Arms[i].Scheme, a)
		}
		if rep.Arms[i].Text != wantScenario[a] {
			t.Fatalf("arm %q text diverges from `scenarios -tsv -smoke -backend hdd -run aggressor-victim -qos %s`:\n--- service ---\n%s\n--- CLI ---\n%s",
				a, a, rep.Arms[i].Text, wantScenario[a])
		}
	}

	// The same builtin with an arm subset: a new report, yet every
	// simulation under it was run by the session above, so the report is
	// the cache's only miss.
	subset, err := json.Marshal(map[string]any{
		"scenario": json.RawMessage(specJSON),
		"backend":  "hdd",
		"smoke":    true,
		"arms":     []string{"fairshare"},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := health(t, baseURL)
	srep, disp := post(t, baseURL+"/v1/whatif", "application/json", subset)
	if disp != "miss" {
		t.Fatalf("arm-subset session: X-Whatif-Cache = %q, want miss", disp)
	}
	if misses := health(t, baseURL).Cache.Misses - before.Cache.Misses; misses != 1 {
		t.Fatalf("arm-subset session missed the cache %d times, want once (its report)", misses)
	}
	if len(srep.Arms) != 2 {
		t.Fatalf("arm-subset session returned %d arms, want 2", len(srep.Arms))
	}
	for _, a := range srep.Arms {
		if a.Text != wantScenario[a.Scheme] {
			t.Fatalf("arm-subset session: arm %q text diverges from `scenarios -tsv -smoke -backend hdd -run aggressor-victim -qos %s`:\n--- service ---\n%s\n--- CLI ---\n%s",
				a.Scheme, a.Scheme, a.Text, wantScenario[a.Scheme])
		}
	}

	// Trace session: the recorded bytes under the CLI's own path label.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	traceURL := baseURL + "/v1/whatif/trace?arms=fairshare&name=" + tracePath
	trep, cold := post(t, traceURL, "application/octet-stream", raw)
	if cold != "miss" {
		t.Fatalf("first trace upload: X-Whatif-Cache = %q, want miss", cold)
	}
	if len(trep.Arms) != 2 {
		t.Fatalf("trace session returned %d arms, want 2", len(trep.Arms))
	}
	if trep.Arms[0].Text != wantReplayBase {
		t.Fatalf("baseline replay text diverges from `scenarios -tsv -replay`:\n--- service ---\n%s\n--- CLI ---\n%s",
			trep.Arms[0].Text, wantReplayBase)
	}
	if trep.Arms[1].Text != wantReplayFS {
		t.Fatalf("fairshare replay text diverges from `scenarios -tsv -replay -qos fairshare`:\n--- service ---\n%s\n--- CLI ---\n%s",
			trep.Arms[1].Text, wantReplayFS)
	}

	// Same upload again: served from the cache, byte-identical document.
	first := rawPost(t, traceURL, "application/octet-stream", raw)
	second := rawPost(t, traceURL, "application/octet-stream", raw)
	if second.cache != "hit" {
		t.Fatalf("repeat upload: X-Whatif-Cache = %q, want hit", second.cache)
	}
	if !bytes.Equal(first.body, second.body) {
		t.Fatal("cache-hit response differs from the cold one")
	}
}

// build compiles one command into out.
func build(t *testing.T, out, pkg string, extra ...string) {
	t.Helper()
	args := append([]string{"build"}, extra...)
	args = append(args, "-o", out, pkg)
	cmd := exec.Command("go", args...)
	cmd.Dir = repoRoot(t)
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, b)
	}
}

// run executes a CLI invocation and returns its stdout.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, errb.String())
	}
	return out.String()
}

// startDaemon launches whatifd on an ephemeral port, waits for its
// listening line, and registers a SIGTERM-drains-to-exit-0 check.
func startDaemon(t *testing.T, bin string) string {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				addr <- a
			}
		}
	}()
	var base string
	select {
	case a := <-addr:
		base = "http://" + a
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("whatifd never reported its listening address")
	}
	t.Cleanup(func() {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			cmd.Process.Kill()
			t.Fatalf("signaling whatifd: %v", err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("whatifd did not exit 0 after SIGTERM: %v", err)
			}
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Error("whatifd did not drain within 30s of SIGTERM")
		}
	})
	return base
}

type postResult struct {
	body  []byte
	cache string
}

// rawPost posts a body and returns the raw response, failing on non-200.
func rawPost(t *testing.T, url, ctype string, body []byte) postResult {
	t.Helper()
	resp, err := http.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, b)
	}
	return postResult{body: b, cache: resp.Header.Get("X-Whatif-Cache")}
}

// post posts a body and decodes the report.
func post(t *testing.T, url, ctype string, body []byte) (*whatif.Report, string) {
	t.Helper()
	res := rawPost(t, url, ctype, body)
	var rep whatif.Report
	if err := json.Unmarshal(res.body, &rep); err != nil {
		t.Fatalf("POST %s: response is not a report: %v", url, err)
	}
	return &rep, res.cache
}

// health fetches and decodes /healthz.
func health(t *testing.T, baseURL string) whatif.Health {
	t.Helper()
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h whatif.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decoding /healthz: %v", err)
	}
	return h
}

// repoRoot resolves the module root from the package directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	return root
}
