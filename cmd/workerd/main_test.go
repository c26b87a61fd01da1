package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/httpmw"
	"repro/internal/logger"
	"repro/internal/metrics"
)

// TestWorkerHealthzDraining: readiness-vs-liveness for workerd,
// matching servd's behavior -- /healthz answers 200 "ok" while
// serving and flips to 503 "draining" once the SIGTERM drain begins
// (serve calls StartDraining before shutting the listener down), so
// the dispatcher's health checks stop routing new shards to a worker
// on its way out while its in-flight shards finish.
func TestWorkerHealthzDraining(t *testing.T) {
	lg := logger.New(logger.Warn, 16)
	reg := metrics.NewRegistry()
	w := dispatch.NewWorker(dispatch.WorkerConfig{MaxConcurrent: 1, Metrics: reg, Logger: lg})
	t.Cleanup(w.Close)
	srv := httptest.NewServer(buildHandler(w, lg, reg))
	t.Cleanup(srv.Close)

	get := func() (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	if code, body := get(); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("live healthz = %d %q, want 200 \"ok\"", code, body)
	}
	w.StartDraining()
	if code, body := get(); code != http.StatusServiceUnavailable || body != "draining\n" {
		t.Fatalf("draining healthz = %d %q, want 503 \"draining\"", code, body)
	}
}

// TestBuildHandlerObservability: the worker's production handler
// echoes (or mints) X-Request-Id, logs rejected shards as tagged
// warnings, serves the log tail at /v1/logs, and keeps the shard API
// routes working behind the chain.
func TestBuildHandlerObservability(t *testing.T) {
	lg := logger.New(logger.Debug, 256)
	reg := metrics.NewRegistry()
	w := dispatch.NewWorker(dispatch.WorkerConfig{MaxConcurrent: 1, Metrics: reg, Logger: lg})
	t.Cleanup(w.Close)
	srv := httptest.NewServer(buildHandler(w, lg, reg))
	t.Cleanup(srv.Close)

	// Health stays reachable through the chain, and a response with no
	// inbound ID still carries a freshly minted one.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if id := resp.Header.Get(httpmw.Header); !httpmw.ValidID(id) {
		t.Fatalf("healthz response request ID %q invalid", id)
	}

	// A hostile shard is rejected with 400, and the rejection lands in
	// the ring tagged with the caller's request ID.
	req, err := http.NewRequest("POST", srv.URL+"/v1/shards", strings.NewReader(`{"bench":"junk"}`))
	if err != nil {
		t.Fatal(err)
	}
	const reqID = "WORKERTESTID1"
	req.Header.Set(httpmw.Header, reqID)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage shard status %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get(httpmw.Header); got != reqID {
		t.Fatalf("inbound request ID not echoed: got %q", got)
	}

	// The tail endpoint serves the ring over HTTP; it must contain both
	// the tagged rejection and its access-log line.
	resp, err = http.Get(srv.URL + "/v1/logs")
	if err != nil {
		t.Fatal(err)
	}
	var recs []struct {
		Level string `json:"level"`
		Msg   string `json:"msg"`
	}
	err = json.NewDecoder(resp.Body).Decode(&recs)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var rejected, access bool
	for _, r := range recs {
		if strings.Contains(r.Msg, "id="+reqID) {
			if r.Level == "WARN" && strings.Contains(r.Msg, "reject") {
				rejected = true
			}
			if strings.Contains(r.Msg, "route=/v1/shards") && strings.Contains(r.Msg, "status=400") {
				access = true
			}
		}
	}
	if !rejected || !access {
		t.Fatalf("ring lacks tagged rejection (rejected=%v access=%v):\n%+v", rejected, access, recs)
	}

	// The chain feeds the shared registry: the shard route histogram
	// recorded the rejected call.
	if n := reg.Histogram("http.latency.POST /v1/shards").Count(); n != 1 {
		t.Fatalf("shard route histogram count = %d, want 1", n)
	}
}

// TestCLIRejectsBadLogLevel: flag validation fails fast with exit
// code 2 before any listener binds.
func TestCLIRejectsBadLogLevel(t *testing.T) {
	var out, errb strings.Builder
	if code := cliMain([]string{"-log-level", "noisy"}, &out, &errb); code != 2 {
		t.Fatalf("exit code %d, want 2; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "noisy") {
		t.Fatalf("stderr does not name the bad level: %s", errb.String())
	}
}

// TestCLIRejectsBadLogBuffer: a -log-buffer outside [1, 1<<20] exits 2
// with usage before any listener binds or any ring is allocated.
func TestCLIRejectsBadLogBuffer(t *testing.T) {
	for _, v := range []string{"0", "-1", "1048577", "1099511627776", "5000000000000000000"} {
		var out, errb strings.Builder
		if code := cliMain([]string{"-log-buffer", v}, &out, &errb); code != 2 {
			t.Fatalf("-log-buffer %s: exit code %d, want 2; stderr: %s", v, code, errb.String())
		}
		if !strings.Contains(errb.String(), "-log-buffer "+v) || !strings.Contains(errb.String(), "usage:") {
			t.Fatalf("-log-buffer %s: stderr lacks the value or usage: %s", v, errb.String())
		}
	}
}

// TestCLIRejectsBadSlots: a -slots below 1 exits 2 with usage before
// any listener binds.
func TestCLIRejectsBadSlots(t *testing.T) {
	for _, v := range []string{"0", "-4"} {
		var out, errb strings.Builder
		if code := cliMain([]string{"-slots", v}, &out, &errb); code != 2 {
			t.Fatalf("-slots %s: exit code %d, want 2; stderr: %s", v, code, errb.String())
		}
		if !strings.Contains(errb.String(), "-slots "+v) || !strings.Contains(errb.String(), "usage:") {
			t.Fatalf("-slots %s: stderr lacks the value or usage: %s", v, errb.String())
		}
	}
}
