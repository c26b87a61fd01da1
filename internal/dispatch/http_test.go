package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/failpoint"
	"repro/internal/metrics"
	"repro/internal/netlist"
)

// newTestWorker mounts a Worker on an httptest server and returns an
// HTTPBackend pointed at it.
func newTestWorker(t *testing.T, wrap func(http.Handler) http.Handler) *HTTPBackend {
	t.Helper()
	w := NewWorker(WorkerConfig{MaxConcurrent: 2, Metrics: metrics.NewRegistry()})
	h := http.Handler(w.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		w.Close()
	})
	return NewHTTPBackend(srv.URL)
}

// TestWorkerEndToEnd: a dispatcher over two real HTTP workers merges
// byte-identical to serial Run.
func TestWorkerEndToEnd(t *testing.T) {
	c, reps := testWorkload(t, 23)
	opt := testOptions()
	want := atpg.Run(c, reps, opt)

	reg := metrics.NewRegistry()
	d := testDispatcher([]Backend{newTestWorker(t, nil), newTestWorker(t, nil)}, reg)
	got, err := d.RunShards(context.Background(), c, reps, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(want), normalize(got)) {
		t.Fatal("HTTP-dispatched result differs from serial Run")
	}
	if p := reg.Counter("dispatch.poisoned").Value(); p != 0 {
		t.Fatalf("clean HTTP run counted %d poisoned checkpoints", p)
	}
}

// TestWorkerDiesMidRun: one worker starts answering 500 to everything
// after its first poll -- the torn-backend case. The breaker benches
// it and the shard migrates to the healthy worker; the merge stays
// byte-identical.
func TestWorkerDiesMidRun(t *testing.T) {
	c, reps := testWorkload(t, 29)
	opt := testOptions()
	want := atpg.Run(c, reps, opt)

	// Every poll fails: the attempt can never complete on this worker
	// no matter how fast the shard itself finishes, so the migration
	// path is exercised deterministically (a fast machine could finish
	// the shard before a delayed "death" kicked in).
	dying := newTestWorker(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/shards/") {
				http.Error(rw, "chaos: worker dead", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(rw, r)
		})
	})
	healthy := newTestWorker(t, nil)

	reg := metrics.NewRegistry()
	d := testDispatcher([]Backend{dying, healthy}, reg)
	got, err := d.RunShards(context.Background(), c, reps, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(want), normalize(got)) {
		t.Fatal("result differs from serial Run after mid-run worker death")
	}
	if r := reg.Counter("dispatch.retries").Value(); r < 1 {
		t.Fatal("dead worker produced no retry")
	}
}

// TestTornHeartbeatTolerated: a worker whose polls fail transiently
// (fewer consecutive failures than maxPollFailures) is NOT declared
// dead -- the attempt rides it out and completes on the first try.
func TestTornHeartbeatTolerated(t *testing.T) {
	c, reps := testWorkload(t, 31)
	opt := testOptions()
	want := atpg.Run(c, reps, opt)

	var polls atomic.Int64
	flaky := newTestWorker(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/shards/") {
				// Every other poll tears; never two in a row.
				if polls.Add(1)%2 == 1 {
					http.Error(rw, "chaos: torn heartbeat", http.StatusInternalServerError)
					return
				}
			}
			h.ServeHTTP(rw, r)
		})
	})

	reg := metrics.NewRegistry()
	d := testDispatcher([]Backend{flaky}, reg)
	got, err := d.RunShards(context.Background(), c, reps, opt, 1) // one poll stream, so "every other" is per-attempt
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(want), normalize(got)) {
		t.Fatal("result differs from serial Run under torn heartbeats")
	}
	if r := reg.Counter("dispatch.retries").Value(); r != 0 {
		t.Fatalf("tolerable poll failures caused %d retries", r)
	}
}

// TestPoisonedResponseRejected: a worker that returns a tampered
// "done" checkpoint must never reach the merge -- the identity-hash
// validation rejects it, the backend is benched, and the shard
// completes elsewhere (here: degraded local execution).
func TestPoisonedResponseRejected(t *testing.T) {
	c, reps := testWorkload(t, 37)
	opt := testOptions()
	want := atpg.Run(c, reps, opt)

	// The poisoner accepts any shard and immediately reports it done
	// with a checkpoint bound to a DIFFERENT fault list (all-zero hash
	// fields after tampering with the encoding is the easy forgery; a
	// wrong-identity checkpoint is the hard one -- both must bounce).
	poison := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			rw.WriteHeader(http.StatusAccepted)
			rw.Write([]byte(`{"id":"p1"}`))
		case r.Method == http.MethodGet && r.URL.Path == "/healthz":
			rw.Write([]byte("ok\n"))
		case r.Method == http.MethodGet:
			// A structurally valid checkpoint for the WRONG work: bound
			// to a truncated fault list, so every identity hash differs.
			wrong := atpg.ShardCheckpoint(c, reps[:1], testOptions(), nil)
			json.NewEncoder(rw).Encode(shardStatusWire{
				State:      shardStateDone,
				Checkpoint: wrong.Encode(),
			})
		default:
			rw.WriteHeader(http.StatusNoContent)
		}
	}))
	defer poison.Close()
	reg := metrics.NewRegistry()
	d := testDispatcher([]Backend{NewHTTPBackend(poison.URL)}, reg)
	got, err := d.RunShards(context.Background(), c, reps, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(want), normalize(got)) {
		t.Fatal("poisoned worker corrupted the merged result")
	}
	if g := reg.Counter("dispatch.degraded").Value(); g < 1 {
		t.Fatal("poisoned-only fleet did not degrade to local execution")
	}
}

// TestSlowBackendDeadline: a backend that sits on a shard forever is
// bounded by the job's deadline, and the worker learns that deadline
// as the shard request's deadline_ms.
func TestSlowBackendDeadline(t *testing.T) {
	c, reps := testWorkload(t, 41)

	// The slow worker accepts the shard and then reports "running"
	// forever, never finishing.
	var deadlineMS atomic.Int64
	stuck := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			var req shardRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			deadlineMS.Store(req.DeadlineMS)
			rw.WriteHeader(http.StatusAccepted)
			rw.Write([]byte(`{"id":"s1"}`))
		case r.Method == http.MethodGet && r.URL.Path == "/healthz":
			rw.Write([]byte("ok\n"))
		case r.Method == http.MethodGet:
			json.NewEncoder(rw).Encode(shardStatusWire{State: shardStateRunning})
		default:
			rw.WriteHeader(http.StatusNoContent)
		}
	}))
	defer stuck.Close()

	d := testDispatcher([]Backend{NewHTTPBackend(stuck.URL)}, metrics.NewRegistry())
	const budget = time.Second
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	if _, err := d.RunShards(ctx, c, reps, testOptions(), 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if ms := deadlineMS.Load(); ms <= 0 || ms > budget.Milliseconds() {
		t.Fatalf("shard request deadline_ms = %d, want in (0, %d]", ms, budget.Milliseconds())
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("the job deadline did not bound the stuck attempt (took %v)", elapsed)
	}
}

// TestWorkerRejectsBadSubmissions: the worker-side validation surface.
func TestWorkerRejectsBadSubmissions(t *testing.T) {
	w := NewWorker(WorkerConfig{})
	defer w.Close()
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	c, reps := testWorkload(t, 43)
	opt := testOptions()
	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/v1/shards", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Fatalf("garbage body accepted: %d", code)
	}
	if code := post(`{"name":"x","bench":"INPUT(","faults":[{"node":1,"pin":-1,"sa":0}]}`); code != http.StatusBadRequest {
		t.Fatalf("bad bench accepted: %d", code)
	}

	// A resume checkpoint bound to different work must bounce with 400.
	req := shardRequest{
		Name:   c.Name,
		Bench:  netlist.BenchString(c),
		Fault:  toFaultWire(reps),
		Opt:    toOptionsWire(opt),
		Resume: atpg.ShardCheckpoint(c, reps[:1], opt, nil).Encode(),
	}
	buf, _ := json.Marshal(req)
	if code := post(string(buf)); code != http.StatusBadRequest {
		t.Fatalf("mismatched resume checkpoint accepted: %d", code)
	}
}

// TestWorkerCloseJoinsShards: Close returns only after every shard
// goroutine has left the engine, so none outlives its Worker. The
// failpoint holds the shard inside GenerateShard for a short,
// bounded sleep per fault, which the cancelled shard then notices.
func TestWorkerCloseJoinsShards(t *testing.T) {
	entered := make(chan struct{}, 1)
	failpoint.Enable(atpg.FailpointShardFault, func() error {
		select {
		case entered <- struct{}{}:
		default:
		}
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	defer failpoint.Disable(atpg.FailpointShardFault)

	w := NewWorker(WorkerConfig{})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	c, reps := testWorkload(t, 43)
	buf, _ := json.Marshal(shardRequest{
		Name:  c.Name,
		Bench: netlist.BenchString(c),
		Fault: toFaultWire(reps),
		Opt:   toOptionsWire(testOptions()),
	})
	resp, err := http.Post(srv.URL+"/v1/shards", "application/json", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	var accepted struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("shard never reached GenerateShard")
	}

	w.Close()
	sh := w.lookup(accepted.ID)
	sh.mu.Lock()
	state := sh.state
	sh.mu.Unlock()
	if state != shardStateFailed {
		t.Fatalf("Close returned with the shard still %q, want %q", state, shardStateFailed)
	}
}
