package service

import (
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/metrics"
	"repro/internal/netlist"
)

// startWorkers launches n in-process shard workers over HTTP and
// returns their base URLs -- what servd's -backend flag would carry.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		w := dispatch.NewWorker(dispatch.WorkerConfig{MaxConcurrent: 2})
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(func() {
			srv.Close()
			w.Close()
		})
		urls[i] = srv.URL
	}
	return urls
}

// distRequest is an ATPG job big enough to shard, opting in to
// distributed execution with the given fan-out.
func distRequest(backends int) Request {
	rng := rand.New(rand.NewSource(3))
	c := netlist.Random(rng, netlist.RandomParams{
		Inputs: 4, Outputs: 3, Gates: 30, DFFs: 3, MaxFanin: 4,
	})
	return Request{
		Kind:  KindATPG,
		Bench: netlist.BenchString(c),
		ATPG:  &ATPGSpec{Backends: backends},
	}
}

// TestServiceDistributedATPG: a job that opts into backends produces
// the identical payload to the same job run locally, and the dispatch
// counters show the fan-out actually happened.
func TestServiceDistributedATPG(t *testing.T) {
	local := newTestService(t, Config{Workers: 1, CacheBytes: -1})
	reg := metrics.NewRegistry()
	dist := newTestService(t, Config{
		Workers:    1,
		CacheBytes: -1,
		Metrics:    reg,
		Backends:   startWorkers(t, 2),
	})

	req := distRequest(2)
	reqLocal := req
	reqLocal.ATPG = &ATPGSpec{} // same knobs, no fan-out

	idL, err := local.Submit(reqLocal)
	if err != nil {
		t.Fatal(err)
	}
	idD, err := dist.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	vL, vD := waitDone(t, local, idL), waitDone(t, dist, idD)
	if vL.Status != StatusDone {
		t.Fatalf("local job failed: %s %s", vL.Status, vL.Error)
	}
	if vD.Status != StatusDone {
		t.Fatalf("distributed job failed: %s %s", vD.Status, vD.Error)
	}
	if !reflect.DeepEqual(vL.Result, vD.Result) {
		t.Fatalf("distributed payload differs from local:\nlocal: %+v\ndist:  %+v", vL.Result, vD.Result)
	}
	if s := reg.Counter("dispatch.shards").Value(); s < 2 {
		t.Fatalf("dispatch.shards=%d, want >= 2", s)
	}
}

// TestATPGOneCacheEntryAcrossEngines: serial, parallel (workers) and
// distributed (backends) runs of one ATPG request are byte-identical by
// contract, so they share one cache entry. The first submission fills
// it; the other two must be hits with the identical payload and the
// same key, and so the same ETag.
func TestATPGOneCacheEntryAcrossEngines(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, Backends: startWorkers(t, 2)})
	plain := distRequest(0)
	plain.ATPG = nil
	parallel := distRequest(0)
	parallel.ATPG = &ATPGSpec{Workers: 2}
	first := View{}
	for i, req := range []Request{plain, parallel, distRequest(2)} {
		id, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		v := waitDone(t, s, id)
		if v.Status != StatusDone {
			t.Fatalf("submission %d: %s (%s)", i, v.Status, v.Error)
		}
		if i == 0 {
			first = v
			continue
		}
		if v.Cache != "hit" {
			t.Fatalf("submission %d: cache %q, want hit", i, v.Cache)
		}
		if v.CacheKey != first.CacheKey {
			t.Fatalf("submission %d: key %s, first %s", i, v.CacheKey, first.CacheKey)
		}
		if got, want := string(resultJSON(t, v)), string(resultJSON(t, first)); got != want {
			t.Fatalf("submission %d: payload differs:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestServiceBackendsIgnoredWithoutFleet: Backends > 0 on a service
// with no configured workers runs locally and still succeeds.
func TestServiceBackendsIgnoredWithoutFleet(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, CacheBytes: -1})
	id, err := s.Submit(distRequest(4))
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, s, id); v.Status != StatusDone {
		t.Fatalf("job failed: %s %s", v.Status, v.Error)
	}
}

// TestNegativeBackendsRejected: validation, not a late runtime error.
func TestNegativeBackendsRejected(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	if _, err := s.Submit(distRequest(-1)); err == nil {
		t.Fatal("negative backends accepted")
	}
}
