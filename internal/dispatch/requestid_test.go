package dispatch

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/httpmw"
	"repro/internal/logger"
	"repro/internal/metrics"
	"repro/internal/netlist"
)

// TestRequestIDReachesWorker: a request ID on the dispatcher's context
// must arrive at the worker as an X-Request-Id header on every shard
// call and be woven into the worker's shard-lifecycle log records.
func TestRequestIDReachesWorker(t *testing.T) {
	c, reps := testWorkload(t, 41)
	opt := testOptions()
	want := atpg.Run(c, reps, opt)

	// The access log records every 2 ms poll, so the ring must hold a
	// few seconds of them or the shards' "accepted" records roll out
	// before the check below reads them.
	wlog := logger.New(logger.Debug, 1<<14)
	w := NewWorker(WorkerConfig{MaxConcurrent: 2, Metrics: metrics.NewRegistry(), Logger: wlog})
	t.Cleanup(w.Close)

	var mu sync.Mutex
	headerIDs := make(map[string]int)
	// The worker mounts behind the same middleware stack cmd/workerd
	// uses, so the inbound ID lands on the request context.
	h := httpmw.Stack(httpmw.Config{Log: wlog})(w.Handler())
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		mu.Lock()
		headerIDs[r.Header.Get(httpmw.Header)]++
		mu.Unlock()
		h.ServeHTTP(rw, r)
	}))
	t.Cleanup(srv.Close)
	b := NewHTTPBackend(srv.URL)
	b.PollEvery = 2 * time.Millisecond
	b.RequestTimeout = 2 * time.Second

	reg := metrics.NewRegistry()
	cfg := testConfig([]Backend{b}, reg)
	d := New(cfg)
	const reqID = "REQ123TEST"
	got, err := d.RunShards(httpmw.ContextWithID(context.Background(), reqID), c, reps, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(want), normalize(got)) {
		t.Fatal("tagged run differs from serial Run")
	}

	mu.Lock()
	defer mu.Unlock()
	if n := headerIDs[reqID]; n == 0 {
		t.Fatalf("no worker request carried %s; headers seen: %v", reqID, headerIDs)
	}
	if n := headerIDs[""]; n != 0 {
		t.Fatalf("%d worker requests arrived without a request id", n)
	}
	recs := wlog.Tail(0)
	if len(recs) == 0 || recs[0].Seq != 1 {
		t.Fatalf("worker log ring wrapped (%d records kept); the lifecycle check needs them all", len(recs))
	}
	var accepted, done bool
	for _, rec := range recs {
		if strings.Contains(rec.Msg, "id="+reqID+" shard=") {
			if strings.Contains(rec.Msg, "accepted") {
				accepted = true
			}
			if strings.Contains(rec.Msg, "done") {
				done = true
			}
		}
	}
	if !accepted || !done {
		t.Fatalf("worker log lacks tagged shard lifecycle (accepted=%v done=%v):\n%+v",
			accepted, done, wlog.Tail(0))
	}
}

// TestWorkerSubmitRejectsHostileFaults: out-of-range fault coordinates
// must be rejected at decode time with a 400, not crash the engine.
func TestWorkerSubmitRejectsHostileFaults(t *testing.T) {
	c := netlist.Fig2C1()
	cases := []struct {
		name string
		mut  func(*shardRequest)
	}{
		{"node out of range", func(r *shardRequest) { r.Fault[0].Node = len(c.Nodes) + 5 }},
		{"negative node", func(r *shardRequest) { r.Fault[0].Node = -2 }},
		{"pin out of range", func(r *shardRequest) { r.Fault[0].Pin = 99 }},
		{"unknown stuck-at", func(r *shardRequest) { r.Fault[0].SA = 7 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := shardRequest{
				Name:  c.Name,
				Bench: netlist.BenchString(c),
				Fault: []faultWire{{Node: 0, Pin: -1, SA: 0}},
				Opt:   toOptionsWire(testOptions()),
			}
			tc.mut(&req)
			data, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeShardRequest(data); err == nil {
				t.Fatal("hostile fault list accepted")
			}
		})
	}
}
