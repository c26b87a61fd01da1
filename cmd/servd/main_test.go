package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/service"
	"repro/internal/sim"
)

func newTestServer(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	svc := service.New(cfg)
	srv := httptest.NewServer(newHandler(svc, nil))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv
}

func postJob(t *testing.T, srv *httptest.Server, req service.Request) string {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var out struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

func pollJob(t *testing.T, srv *httptest.Server, id string) service.View {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v service.View
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeriveTestsEndToEnd is the tentpole acceptance test: submit the
// paper's Fig. 5 implemented circuit as a derive_tests job over HTTP,
// poll to completion, and verify via internal/core that the returned
// derived test set detects every corresponding fault (Theorem 4), with
// /metrics reflecting the completed job and its observed latency.
func TestDeriveTestsEndToEnd(t *testing.T) {
	srv := newTestServer(t, service.Config{Workers: 2})
	impl := netlist.Fig5N2()
	id := postJob(t, srv, service.Request{
		Kind:  service.KindDeriveTests,
		Bench: netlist.BenchString(impl),
	})
	v := pollJob(t, srv, id)
	if v.Status != service.StatusDone {
		t.Fatalf("status %s, error %q", v.Status, v.Error)
	}
	got := v.Result.Derive
	if len(got.Derived) == 0 {
		t.Fatal("no derived test set returned")
	}

	// Rebuild the same deterministic flow locally so the pair carries
	// the paper's fault correspondence for the returned circuit.
	lib, err := netlist.ParseBenchString("job", netlist.BenchString(impl))
	if err != nil {
		t.Fatal(err)
	}
	flow, err := core.Fig6Flow(lib, atpg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Fault-simulate the returned vectors (not the local ones) on the
	// implementation.
	derived := sim.ParseSeq(strings.Join(got.Derived, ","))
	implFaults, repRet := fault.Collapse(flow.Pair.Retimed)
	res := fsim.Run(flow.Pair.Retimed, implFaults, derived)
	if res.Detected() != got.ImplDetected {
		t.Fatalf("returned vectors detect %d faults, job reported %d", res.Detected(), got.ImplDetected)
	}

	// Theorem 4 over the full fault universe: every implementation fault
	// all of whose corresponding easy-circuit faults were detected by
	// the easy ATPG must be detected by the returned derived set.
	_, repOrig := fault.Collapse(flow.Pair.Original)
	checked := 0
	for _, f := range fault.Universe(flow.Pair.Retimed) {
		corr := flow.Pair.CorrespondingInOriginal(f)
		if len(corr) == 0 {
			continue
		}
		all := true
		for _, of := range corr {
			if flow.EasyATPG.Status[repOrig[of]] != atpg.StatusDetected {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		checked++
		if _, det := res.DetectedAt[repRet[f]]; !det {
			t.Errorf("corresponding fault %s not detected by the derived set", f.Name(flow.Pair.Retimed))
		}
	}
	if checked == 0 {
		t.Fatal("Theorem 4 check covered no faults")
	}

	// /metrics must reflect the completed job and observed latency.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("metrics content type %q", ct)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics endpoint is not valid JSON: %v", err)
	}
	if m["jobs.done.derive_tests"].(float64) != 1 {
		t.Fatalf("jobs.done.derive_tests = %v", m["jobs.done.derive_tests"])
	}
	lat := m["jobs.latency.derive_tests"].(map[string]any)
	if lat["count"].(float64) != 1 || lat["sum_ns"].(float64) <= 0 {
		t.Fatalf("job latency histogram = %v", lat)
	}
	stage := m["stage.fig6.latency"].(map[string]any)
	if stage["count"].(float64) != 1 {
		t.Fatalf("fig6 stage latency = %v", stage)
	}
}

func TestJobTimeoutOverHTTP(t *testing.T) {
	srv := newTestServer(t, service.Config{Workers: 1})
	big := benchCircuit(t, 300, 24)
	id := postJob(t, srv, service.Request{
		Kind:      service.KindATPG,
		Bench:     big,
		ATPG:      &service.ATPGSpec{MaxEvalsTotal: 2_000_000},
		TimeoutMS: 1,
	})
	v := pollJob(t, srv, id)
	if v.Status != service.StatusFailed || !strings.Contains(v.Error, "deadline") {
		t.Fatalf("status %s, error %q", v.Status, v.Error)
	}
	// Server must keep serving.
	id = postJob(t, srv, service.Request{
		Kind:  service.KindRetime,
		Bench: netlist.BenchString(netlist.Fig2C1()),
	})
	if v := pollJob(t, srv, id); v.Status != service.StatusDone {
		t.Fatalf("post-timeout job: status %s, error %q", v.Status, v.Error)
	}
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t, service.Config{Workers: 1})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if string(b) != "ok\n" {
		t.Fatalf("healthz body %q", b)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	srv := newTestServer(t, service.Config{Workers: 1})
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
	}{
		{"bad json", "POST", "/v1/jobs", "{", http.StatusBadRequest},
		{"unknown field", "POST", "/v1/jobs", `{"kindd":"atpg"}`, http.StatusBadRequest},
		{"unknown kind", "POST", "/v1/jobs", `{"kind":"mystery","bench":"INPUT(a)"}`, http.StatusBadRequest},
		{"empty bench", "POST", "/v1/jobs", `{"kind":"atpg"}`, http.StatusBadRequest},
		{"unknown job", "GET", "/v1/jobs/job-999999", "", http.StatusNotFound},
		{"wrong method on jobs", "DELETE", "/v1/jobs", "", http.StatusMethodNotAllowed},
		{"wrong method on health", "POST", "/healthz", "", http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
	}
}

func TestListJobsEndpoint(t *testing.T) {
	srv := newTestServer(t, service.Config{Workers: 1})
	id := postJob(t, srv, service.Request{
		Kind:  service.KindRetime,
		Bench: netlist.BenchString(netlist.Fig2C1()),
	})
	pollJob(t, srv, id)
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []service.View
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0].ID != id {
		t.Fatalf("list = %+v", views)
	}
}

func TestCLIMainErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"unknown flag", []string{"-bogus"}, 2},
		{"extra args", []string{"stray.bench"}, 2},
		{"help", []string{"-h"}, 2},
		{"log buffer zero", []string{"-log-buffer", "0"}, 2},
		{"log buffer past max", []string{"-log-buffer", "1048577"}, 2},
		{"log buffer 2^40", []string{"-log-buffer", "1099511627776"}, 2},
		{"log buffer near MaxInt64", []string{"-log-buffer", "5000000000000000000"}, 2},
		{"max body zero", []string{"-max-body", "0"}, 2},
		{"max body negative", []string{"-max-body", "-1"}, 2},
		{"queue zero", []string{"-queue", "0"}, 2},
		{"queue negative", []string{"-queue", "-3"}, 2},
		{"timeout zero", []string{"-timeout", "0"}, 2},
		{"timeout negative", []string{"-timeout", "-1s"}, 2},
	}
	for _, c := range cases {
		var out, errw bytes.Buffer
		if got := cliMain(c.args, &out, &errw); got != c.code {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.code)
		}
		if errw.Len() == 0 {
			t.Errorf("%s: no usage message on stderr", c.name)
		}
	}
}

// benchCircuit returns a deterministic random circuit in bench text.
func benchCircuit(t *testing.T, gates, dffs int) string {
	t.Helper()
	c := netlist.Random(rand.New(rand.NewSource(21)), netlist.RandomParams{
		Inputs: 8, Outputs: 8, Gates: gates, DFFs: dffs, MaxFanin: 4,
	})
	return netlist.BenchString(c)
}

// TestParallelATPGMetricsOverHTTP submits a fault-sharded ATPG job and
// checks the shard counters surface on /metrics. GOMAXPROCS is raised
// so the service's clamp leaves all four workers.
func TestParallelATPGMetricsOverHTTP(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	srv := newTestServer(t, service.Config{Workers: 1})
	id := postJob(t, srv, service.Request{
		Kind:  service.KindATPG,
		Bench: netlist.BenchString(netlist.Fig2C1()),
		ATPG:  &service.ATPGSpec{Workers: 4},
	})
	v := pollJob(t, srv, id)
	if v.Status != service.StatusDone {
		t.Fatalf("status %s, error %q", v.Status, v.Error)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics endpoint is not valid JSON: %v", err)
	}
	if got, ok := m["atpg.parallel.runs"].(float64); !ok || got != 1 {
		t.Fatalf("atpg.parallel.runs = %v", m["atpg.parallel.runs"])
	}
	if got, ok := m["atpg.parallel.workers"].(float64); !ok || got != 4 {
		t.Fatalf("atpg.parallel.workers = %v", m["atpg.parallel.workers"])
	}
	for _, key := range []string{"atpg.parallel.speculated", "atpg.parallel.fortuitous"} {
		if _, ok := m[key].(float64); !ok {
			t.Fatalf("metric %s missing: %v", key, m[key])
		}
	}
}

// TestHealthzDraining checks readiness-vs-liveness: /healthz answers
// 200 "ok" while serving and flips to 503 "draining" once shutdown
// begins (serve sets the flag before draining connections), so load
// balancers stop routing new work to a server that is on its way out.
func TestHealthzDraining(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	var draining atomic.Bool
	srv := httptest.NewServer(newHandler(svc, &draining))
	defer srv.Close()

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
	draining.Store(true)
	if code, body := get(); code != http.StatusServiceUnavailable || body != "draining\n" {
		t.Fatalf("draining healthz = %d %q, want 503 \"draining\"", code, body)
	}
}
