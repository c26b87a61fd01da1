package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/resultcache"
)

// resultJSON is the canonical payload comparison: exactly the bytes
// the cache stores and the HTTP layer serves.
func resultJSON(t *testing.T, v View) []byte {
	t.Helper()
	if v.Result == nil {
		t.Fatalf("job %s has no result (status %s, err %q)", v.ID, v.Status, v.Error)
	}
	b, err := json.Marshal(v.Result)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCacheServesRepeatedSubmission(t *testing.T) {
	reg := metrics.NewRegistry()
	s := newTestService(t, Config{Workers: 1, Metrics: reg})

	id1, err := s.Submit(atpgRequest())
	if err != nil {
		t.Fatal(err)
	}
	cold := waitDone(t, s, id1)
	if cold.Cache != "miss" {
		t.Fatalf("first run reported cache %q, want miss", cold.Cache)
	}
	if cold.CacheKey == "" {
		t.Fatal("first run has no cache key")
	}

	id2, err := s.Submit(atpgRequest())
	if err != nil {
		t.Fatal(err)
	}
	warm := waitDone(t, s, id2)
	if warm.Cache != "hit" {
		t.Fatalf("second run reported cache %q, want hit", warm.Cache)
	}
	if warm.CacheKey != cold.CacheKey {
		t.Fatalf("cache keys differ: %s vs %s", warm.CacheKey, cold.CacheKey)
	}
	if string(resultJSON(t, warm)) != string(resultJSON(t, cold)) {
		t.Fatal("cached result is not byte-identical to the cold run")
	}
	if n := reg.Histogram("stage.atpg.latency").Count(); n != 1 {
		t.Fatalf("ATPG ran %d times, want 1", n)
	}
	if h, st := reg.Counter("cache.hits").Value(), reg.Counter("cache.stores").Value(); h != 1 || st != 1 {
		t.Fatalf("hits=%d stores=%d, want 1/1", h, st)
	}
}

// TestCacheHitRunsNoStage: a hit is answered from the request alone.
// After one miss per job kind, an identical submission is a hit and
// observes no stage.*.latency histogram, stage.parse included.
func TestCacheHitRunsNoStage(t *testing.T) {
	reg := metrics.NewRegistry()
	s := newTestService(t, Config{Workers: 1, Metrics: reg})
	stages := func() map[string]int64 {
		counts := map[string]int64{}
		reg.Do(func(name string, v metrics.Var) {
			if h, ok := v.(*metrics.Histogram); ok && strings.HasPrefix(name, "stage.") {
				counts[name] = h.Count()
			}
		})
		return counts
	}
	bench := netlist.BenchString(netlist.Fig5N2())
	for _, req := range []Request{
		{Kind: KindRetime, Bench: bench},
		atpgRequest(),
		{Kind: KindFaultSim, Bench: bench, Tests: "000,011,111"},
		{Kind: KindDeriveTests, Bench: bench},
	} {
		id, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if v := waitDone(t, s, id); v.Cache != "miss" {
			t.Fatalf("%s: first run reported cache %q (%s), want miss", req.Kind, v.Cache, v.Error)
		}
		before := stages()
		if before["stage.parse.latency"] == 0 {
			t.Fatalf("%s: the miss observed no parse stage", req.Kind)
		}
		id, err = s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if v := waitDone(t, s, id); v.Cache != "hit" {
			t.Fatalf("%s: repeat reported cache %q, want hit", req.Kind, v.Cache)
		}
		for name, n := range stages() {
			if n != before[name] {
				t.Errorf("%s: the hit observed %s (%d -> %d)", req.Kind, name, before[name], n)
			}
		}
	}
}

// TestCacheUndecodablePayload: a stored payload that no longer decodes
// is deleted, counted once as cache.payload_errors, recomputed and
// replaced, never served -- on a first attempt, which goes through the
// single-flight Do, and on a retried one, which goes through Get.
func TestCacheUndecodablePayload(t *testing.T) {
	req := atpgRequest()
	key := requestKey(&req)
	bad := []byte("not a service.Result")
	ref := newTestService(t, Config{Workers: 1, CacheBytes: -1})
	refID, err := ref.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	want := string(resultJSON(t, waitDone(t, ref, refID)))

	check := func(t *testing.T, s *Service, id string, attempt int) {
		t.Helper()
		v := waitDone(t, s, id)
		if v.Status != StatusDone || v.Attempt != attempt {
			t.Fatalf("status %s attempt %d (%s), want done on attempt %d", v.Status, v.Attempt, v.Error, attempt)
		}
		if string(resultJSON(t, v)) != want {
			t.Fatal("result differs from a clean run")
		}
		if v.Cache != "miss" {
			t.Fatalf("cache %q, want miss (recomputed)", v.Cache)
		}
		if n := s.Metrics().Counter("cache.payload_errors").Value(); n != 1 {
			t.Fatalf("cache.payload_errors = %d, want 1", n)
		}
		if payload, _, ok := s.cache.Get(key); !ok || string(payload) != want {
			t.Fatal("the undecodable entry was not replaced by the recomputed payload")
		}
	}

	t.Run("first-attempt", func(t *testing.T) {
		s := newTestService(t, Config{Workers: 1, Metrics: metrics.NewRegistry()})
		s.cache.Put(key, bad)
		id, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		check(t, s, id, 1)
	})

	t.Run("retried-attempt", func(t *testing.T) {
		// A journal whose job was mid-run at crash time: recovery
		// re-runs it as attempt 2 against a disk tier holding the bad
		// entry.
		dir := t.TempDir()
		cacheDir := filepath.Join(dir, "cache")
		resultcache.New(resultcache.Config{Dir: cacheDir}).Put(key, bad)
		path := filepath.Join(dir, "jobs.journal")
		j, err := openJournal(path, false, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		j.append(journalEntry{Event: evSubmit, ID: "job-000001", Req: &req})
		j.append(journalEntry{Event: evStart, ID: "job-000001", Attempt: 1})
		j.Close()
		s, err := Open(Config{Workers: 1, JournalPath: path, CacheDir: cacheDir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		check(t, s, "job-000001", 2)
	})
}

// TestCacheDiskTierSurvivesRestart proves the on-disk path of the
// acceptance criterion: a fresh service process (empty memory tier)
// pointed at the same cache directory serves the repeat byte-identical
// from disk.
func TestCacheDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	s1 := New(Config{Workers: 1, CacheDir: dir})
	id1, err := s1.Submit(atpgRequest())
	if err != nil {
		t.Fatal(err)
	}
	cold := waitDone(t, s1, id1)
	s1.Close()

	reg := metrics.NewRegistry()
	s2 := newTestService(t, Config{Workers: 1, CacheDir: dir, Metrics: reg})
	id2, err := s2.Submit(atpgRequest())
	if err != nil {
		t.Fatal(err)
	}
	warm := waitDone(t, s2, id2)
	if warm.Cache != "hit-disk" {
		t.Fatalf("restarted service reported cache %q, want hit-disk", warm.Cache)
	}
	if string(resultJSON(t, warm)) != string(resultJSON(t, cold)) {
		t.Fatal("disk-served result is not byte-identical to the cold run")
	}
	if n := reg.Histogram("stage.atpg.latency").Count(); n != 0 {
		t.Fatalf("ATPG ran %d times after restart, want 0", n)
	}
}

// TestConcurrentIdenticalSubmissionsRunOnce is the single-flight
// acceptance criterion: N concurrent identical submissions, one ATPG
// execution, every result byte-identical. Run under -race.
func TestConcurrentIdenticalSubmissionsRunOnce(t *testing.T) {
	const n = 8
	reg := metrics.NewRegistry()
	s := newTestService(t, Config{Workers: 4, Metrics: reg})

	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := s.Submit(atpgRequest())
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var want []byte
	misses := 0
	for _, id := range ids {
		v := waitDone(t, s, id)
		if v.Status != StatusDone {
			t.Fatalf("job %s: %s (%s)", id, v.Status, v.Error)
		}
		if v.Cache == "miss" {
			misses++
		}
		got := resultJSON(t, v)
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Fatalf("job %s result differs from the others", id)
		}
	}
	if n := reg.Histogram("stage.atpg.latency").Count(); n != 1 {
		t.Fatalf("ATPG ran %d times for %d identical submissions, want 1", n, len(ids))
	}
	if st := reg.Counter("cache.stores").Value(); st != 1 {
		t.Fatalf("stores=%d, want 1", st)
	}
	if misses != 1 {
		t.Fatalf("%d jobs computed (cache=miss), want exactly 1", misses)
	}
	// The rest either rode the flight or arrived after it settled.
	if sh, h := reg.Counter("cache.singleflight_shared").Value(), reg.Counter("cache.hits").Value(); sh+h != n-1 {
		t.Fatalf("shared=%d hits=%d, want them to cover the other %d jobs", sh, h, n-1)
	}
}

// TestOpenSweepsTornCacheFiles: recovery collects crash residue from
// the cache directory -- torn .tmp writes and corrupt entries -- before
// anything consults it.
func TestOpenSweepsTornCacheFiles(t *testing.T) {
	dir := t.TempDir()
	k := resultcache.Key{Circuit: 1, Faults: 2, Options: 3}
	torn := filepath.Join(dir, k.String()+".rce.tmp")
	if err := os.WriteFile(torn, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, resultcache.Key{Circuit: 9}.String()+".rce")
	if err := os.WriteFile(corrupt, []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	s := newTestService(t, Config{Workers: 1, CacheDir: dir, Metrics: reg})
	_ = s
	for _, p := range []string{torn, corrupt} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s survived the recovery sweep", filepath.Base(p))
		}
	}
	if n := reg.Counter("cache.disk_discarded").Value(); n < 2 {
		t.Fatalf("disk_discarded=%d, want >=2", n)
	}
}

func TestCacheDisabled(t *testing.T) {
	reg := metrics.NewRegistry()
	s := newTestService(t, Config{Workers: 1, CacheBytes: -1, Metrics: reg})
	for i := 0; i < 2; i++ {
		id, err := s.Submit(atpgRequest())
		if err != nil {
			t.Fatal(err)
		}
		v := waitDone(t, s, id)
		if v.CacheKey != "" || v.Cache != "" {
			t.Fatalf("disabled cache still annotated the job: key=%q cache=%q", v.CacheKey, v.Cache)
		}
	}
	if n := reg.Histogram("stage.atpg.latency").Count(); n != 2 {
		t.Fatalf("ATPG ran %d times with caching off, want 2", n)
	}
}

func TestRequestKeyNormalization(t *testing.T) {
	same := [][2]Request{
		{{Kind: KindRetime, Mode: ""}, {Kind: KindRetime, Mode: "period"}},
		{{Kind: KindDeriveTests, Fill: ""}, {Kind: KindDeriveTests, Fill: "zeros"}},
		{{Kind: KindDeriveTests, Fill: "ones", Seed: 1}, {Kind: KindDeriveTests, Fill: "ones", Seed: 2}},
		{{Kind: KindATPG}, {Kind: KindATPG, TimeoutMS: 5000}},
		// Worker and backend counts are result-neutral: serial, parallel
		// and distributed runs share one entry.
		{{Kind: KindATPG}, {Kind: KindATPG, ATPG: &ATPGSpec{Workers: 1}}},
		{{Kind: KindATPG}, {Kind: KindATPG, ATPG: &ATPGSpec{Workers: 4}}},
		{{Kind: KindATPG}, {Kind: KindATPG, ATPG: &ATPGSpec{Workers: 4, Backends: 2}}},
	}
	for i, pair := range same {
		if requestKey(&pair[0]) != requestKey(&pair[1]) {
			t.Errorf("case %d: equivalent requests got different keys", i)
		}
	}
	distinct := [][2]Request{
		{{Kind: KindRetime}, {Kind: KindRetime, Mode: "registers"}},
		{{Kind: KindATPG}, {Kind: KindRetime}},
		{{Kind: KindATPG}, {Kind: KindATPG, ATPG: &ATPGSpec{RandomSeed: 7}}},
		{{Kind: KindFaultSim, Tests: "00"}, {Kind: KindFaultSim, Tests: "01"}},
		{{Kind: KindDeriveTests, Fill: "random", Seed: 1}, {Kind: KindDeriveTests, Fill: "random", Seed: 2}},
	}
	for i, pair := range distinct {
		if requestKey(&pair[0]) == requestKey(&pair[1]) {
			t.Errorf("case %d: result-affecting difference got the same key", i)
		}
	}
	c1 := Request{Kind: KindATPG, Bench: netlist.BenchString(netlist.Fig2C1())}
	c2 := Request{Kind: KindATPG, Bench: netlist.BenchString(netlist.Fig2C2())}
	if requestKey(&c1) == requestKey(&c2) {
		t.Error("different circuits got the same key")
	}
}

// TestRequestKeyClassifiesEveryField: every field of Request and
// ATPGSpec is labelled result-affecting (a changed value must move
// requestKey) or neutral (it must not). A new field without a label
// fails here until someone decides which it is.
func TestRequestKeyClassifiesEveryField(t *testing.T) {
	bench := netlist.BenchString(netlist.Fig2C1())
	atpgReq := Request{Kind: KindATPG, Bench: bench, ATPG: &ATPGSpec{}}
	off := false
	type field struct {
		base    Request
		edit    func(*Request)
		neutral bool
	}
	fields := map[string]field{
		"Kind":      {atpgReq, func(r *Request) { r.Kind = KindDeriveTests }, false},
		"Bench":     {atpgReq, func(r *Request) { r.Bench += "\n" }, false},
		"Mode":      {Request{Kind: KindRetime, Bench: bench}, func(r *Request) { r.Mode = "registers" }, false},
		"ATPG":      {Request{Kind: KindATPG, Bench: bench}, func(r *Request) { r.ATPG = &ATPGSpec{MaxFrames: 3} }, false},
		"Tests":     {Request{Kind: KindFaultSim, Bench: bench, Tests: "00"}, func(r *Request) { r.Tests = "01" }, false},
		"Fill":      {Request{Kind: KindDeriveTests, Bench: bench}, func(r *Request) { r.Fill = "ones" }, false},
		"Seed":      {Request{Kind: KindDeriveTests, Bench: bench, Fill: "random"}, func(r *Request) { r.Seed = 9 }, false},
		"TimeoutMS": {atpgReq, func(r *Request) { r.TimeoutMS = 5000 }, true},

		"ATPG.MaxFrames":        {atpgReq, func(r *Request) { r.ATPG.MaxFrames = 3 }, false},
		"ATPG.MaxBacktracks":    {atpgReq, func(r *Request) { r.ATPG.MaxBacktracks = 7 }, false},
		"ATPG.MaxEvalsPerFault": {atpgReq, func(r *Request) { r.ATPG.MaxEvalsPerFault = 1000 }, false},
		"ATPG.MaxEvalsTotal":    {atpgReq, func(r *Request) { r.ATPG.MaxEvalsTotal = 1000 }, false},
		"ATPG.RandomPhase":      {atpgReq, func(r *Request) { r.ATPG.RandomPhase = &off }, false},
		"ATPG.RandomSeed":       {atpgReq, func(r *Request) { r.ATPG.RandomSeed = 7 }, false},
		"ATPG.Workers":          {atpgReq, func(r *Request) { r.ATPG.Workers = 4 }, true},
		"ATPG.Backends":         {atpgReq, func(r *Request) { r.ATPG.Backends = 2 }, true},
	}
	seen := map[string]bool{}
	for prefix, typ := range map[string]reflect.Type{"": reflect.TypeOf(Request{}), "ATPG.": reflect.TypeOf(ATPGSpec{})} {
		for i := 0; i < typ.NumField(); i++ {
			name := prefix + typ.Field(i).Name
			seen[name] = true
			f, ok := fields[name]
			if !ok {
				t.Errorf("%s is not classified as result-affecting or neutral", name)
				continue
			}
			base, edited := f.base, f.base
			if base.ATPG != nil {
				spec := *base.ATPG
				edited.ATPG = &spec
			}
			f.edit(&edited)
			if err := edited.Validate(); err != nil {
				t.Errorf("%s: edited request is invalid: %v", name, err)
			}
			if moved := requestKey(&base) != requestKey(&edited); moved == f.neutral {
				t.Errorf("%s (neutral=%v): changing it moved the key = %v", name, f.neutral, moved)
			}
		}
	}
	for name := range fields {
		if !seen[name] {
			t.Errorf("classified field %s does not exist", name)
		}
	}
}

// TestCacheHammer is the concurrency satellite: eviction pressure (a
// budget that holds only a couple of payloads), single-flight dedup
// (every round resubmits the same small request mix) and the
// checkpoint resume path (journal on, cadence 1) all interleaving,
// at worker counts 1, 2 and 4, under -race. Every repeated request must
// produce the byte-identical payload no matter which path served it.
func TestCacheHammer(t *testing.T) {
	benches := []string{
		netlist.BenchString(netlist.Fig5N1()),
		netlist.BenchString(netlist.Fig5N2()),
		netlist.BenchString(netlist.Fig2C1()),
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			s := newTestService(t, Config{
				Workers:     workers,
				QueueDepth:  256,
				Metrics:     metrics.NewRegistry(),
				JournalPath: filepath.Join(dir, "journal.jsonl"),
				CacheBytes:  4096, // every payload fits, not all at once: constant eviction churn
				CacheDir:    filepath.Join(dir, "cache"),
			})
			s.checkpointEvery = 1
			reqs := make([]Request, 0, len(benches)*2)
			for _, b := range benches {
				w := len(mustParse(t, b).Inputs)
				tests := strings.Repeat("0", w) + "," + strings.Repeat("1", w)
				reqs = append(reqs,
					Request{Kind: KindATPG, Bench: b},
					Request{Kind: KindFaultSim, Bench: b, Tests: tests})
			}
			want := make([]string, len(reqs))
			const rounds = 4
			var wg sync.WaitGroup
			ids := make([][]string, rounds)
			for r := range ids {
				ids[r] = make([]string, len(reqs))
				for i, req := range reqs {
					wg.Add(1)
					go func(r, i int, req Request) {
						defer wg.Done()
						id, err := s.Submit(req)
						if err != nil {
							t.Error(err)
							return
						}
						ids[r][i] = id
					}(r, i, req)
				}
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			for r := range ids {
				for i, id := range ids[r] {
					v := waitDone(t, s, id)
					if v.Status != StatusDone {
						t.Fatalf("round %d req %d (%s): %s (%s)", r, i, id, v.Status, v.Error)
					}
					got := string(resultJSON(t, v))
					if want[i] == "" {
						want[i] = got
					} else if got != want[i] {
						t.Fatalf("round %d req %d: payload diverged", r, i)
					}
				}
			}
			// The durable tier must be clean residue-wise afterwards.
			if removed := s.cache.Sweep(); removed != 0 {
				t.Fatalf("sweep removed %d files from a healthy store", removed)
			}
			if s.cfg.Metrics.Counter("cache.evictions").Value() == 0 {
				t.Fatal("no evictions: the budget never churned")
			}
		})
	}
}

// TestCancelOneOfConcurrentIdentical: cancelling a follower must not
// disturb the leader computing the shared flight, and cancelling the
// leader must not poison later identical submissions.
func TestCancelConcurrentIdenticalFollower(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	id1, err := s.Submit(atpgRequest())
	if err != nil {
		t.Fatal(err)
	}
	v1 := waitDone(t, s, id1)
	if v1.Status != StatusDone {
		t.Fatalf("leader: %s (%s)", v1.Status, v1.Error)
	}
	// Cancel a fresh identical submission before a worker picks it up;
	// whether it ran to a hit first or was retired queued, later
	// submissions still hit.
	id2, err := s.Submit(atpgRequest())
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel(id2)
	ctx, cancel := context.WithTimeout(context.Background(), 30_000_000_000)
	defer cancel()
	s.Wait(ctx, id2)
	id3, err := s.Submit(atpgRequest())
	if err != nil {
		t.Fatal(err)
	}
	v3 := waitDone(t, s, id3)
	if v3.Status != StatusDone || v3.Cache != "hit" {
		t.Fatalf("post-cancel submission: status=%s cache=%q", v3.Status, v3.Cache)
	}
}
