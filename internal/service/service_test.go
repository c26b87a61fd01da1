package service

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/sim"
)

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func waitDone(t *testing.T, s *Service, id string) View {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	v, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return v
}

func TestSubmitValidation(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	bench := netlist.BenchString(netlist.Fig2C1())
	cases := []struct {
		name string
		req  Request
	}{
		{"unknown kind", Request{Kind: "mystery", Bench: bench}},
		{"empty bench", Request{Kind: KindATPG}},
		{"bad mode", Request{Kind: KindRetime, Bench: bench, Mode: "sideways"}},
		{"bad fill", Request{Kind: KindDeriveTests, Bench: bench, Fill: "sevens"}},
		{"fault_sim without tests", Request{Kind: KindFaultSim, Bench: bench}},
		{"fault_sim tests with a letter", Request{Kind: KindFaultSim, Bench: bench, Tests: "01a,1-0"}},
		{"fault_sim tests with a multibyte rune", Request{Kind: KindFaultSim, Bench: bench, Tests: "é1"}},
		{"negative timeout", Request{Kind: KindATPG, Bench: bench, TimeoutMS: -1}},
	}
	for _, c := range cases {
		if _, err := s.Submit(c.req); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestRetimeJobMatchesLibrary(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	c := netlist.Fig2C1()
	id, err := s.Submit(Request{Kind: KindRetime, Bench: netlist.BenchString(c)})
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, s, id)
	if v.Status != StatusDone {
		t.Fatalf("status %s, error %q", v.Status, v.Error)
	}
	r := v.Result.Retime
	pair, before, after, err := core.MinPeriodPair(mustParse(t, netlist.BenchString(c)))
	if err != nil {
		t.Fatal(err)
	}
	if r.PeriodBefore != before || r.PeriodAfter != after {
		t.Fatalf("periods %d->%d, want %d->%d", r.PeriodBefore, r.PeriodAfter, before, after)
	}
	if want := netlist.BenchString(pair.Retimed); r.Bench != want {
		t.Fatalf("retimed bench differs from library call:\n%s\nvs\n%s", r.Bench, want)
	}
	if r.PrefixTests != pair.PrefixLengthTests() {
		t.Fatalf("prefix %d, want %d", r.PrefixTests, pair.PrefixLengthTests())
	}
}

func TestRetimeRegistersMode(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	id, err := s.Submit(Request{
		Kind:  KindRetime,
		Bench: netlist.BenchString(netlist.Fig5N2()),
		Mode:  "registers",
	})
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, s, id)
	if v.Status != StatusDone {
		t.Fatalf("status %s, error %q", v.Status, v.Error)
	}
	r := v.Result.Retime
	if r.RegistersAfter > r.RegistersBefore {
		t.Fatalf("register count grew: %d -> %d", r.RegistersBefore, r.RegistersAfter)
	}
	if r.Bench == "" {
		t.Fatal("no retimed circuit returned")
	}
}

func TestATPGJobDeterministic(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	c := netlist.Fig2C1()
	id, err := s.Submit(Request{Kind: KindATPG, Bench: netlist.BenchString(c)})
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, s, id)
	if v.Status != StatusDone {
		t.Fatalf("status %s, error %q", v.Status, v.Error)
	}
	lib := mustParse(t, netlist.BenchString(c))
	faults, _ := fault.Collapse(lib)
	direct := atpg.Run(lib, faults, atpg.DefaultOptions())
	got := v.Result.ATPG
	if got.Faults != len(faults) {
		t.Fatalf("faults %d, want %d", got.Faults, len(faults))
	}
	if want := vecStrings(direct.TestSet); strings.Join(got.Vectors, ",") != strings.Join(want, ",") {
		t.Fatalf("test set differs from direct atpg.Run:\n%v\nvs\n%v", got.Vectors, want)
	}
	if got.FaultCoverage != direct.FaultCoverage() {
		t.Fatalf("coverage %v, want %v", got.FaultCoverage, direct.FaultCoverage())
	}
}

// TestATPGJobParallelWorkers drives the fault-sharded engine through
// the job path: same test set as a serial job, speculation counters in
// the metrics registry. The cache is off so both jobs really run (they
// share one entry otherwise), and GOMAXPROCS is raised so the service's
// clamp leaves all four workers.
func TestATPGJobParallelWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	s := newTestService(t, Config{Workers: 1, CacheBytes: -1})
	c := netlist.Fig2C1()
	bench := netlist.BenchString(c)

	serial, err := s.Submit(Request{Kind: KindATPG, Bench: bench})
	if err != nil {
		t.Fatal(err)
	}
	sv := waitDone(t, s, serial)
	if sv.Status != StatusDone {
		t.Fatalf("serial status %s, error %q", sv.Status, sv.Error)
	}

	parallel, err := s.Submit(Request{Kind: KindATPG, Bench: bench, ATPG: &ATPGSpec{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	pv := waitDone(t, s, parallel)
	if pv.Status != StatusDone {
		t.Fatalf("parallel status %s, error %q", pv.Status, pv.Error)
	}

	if strings.Join(pv.Result.ATPG.Vectors, ",") != strings.Join(sv.Result.ATPG.Vectors, ",") {
		t.Fatal("parallel job produced a different test set than the serial job")
	}
	if got := s.Metrics().Counter("atpg.parallel.runs").Value(); got != 1 {
		t.Fatalf("atpg.parallel.runs = %d, want 1", got)
	}
	if s.Metrics().Gauge("atpg.parallel.workers").Value() != 4 {
		t.Fatal("atpg.parallel.workers gauge not recorded")
	}
}

// TestATPGWorkersClamped: an absurd worker count is clamped to
// GOMAXPROCS at the service edge -- the job finishes byte-identical to
// the serial one without starting a speculator per survivor -- and a
// negative count is rejected at submit.
func TestATPGWorkersClamped(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, CacheBytes: -1})
	bench := netlist.BenchString(netlist.Fig5N1())
	if _, err := s.Submit(Request{Kind: KindATPG, Bench: bench, ATPG: &ATPGSpec{Workers: -1}}); err == nil {
		t.Fatal("negative workers accepted")
	}
	serial, err := s.Submit(Request{Kind: KindATPG, Bench: bench})
	if err != nil {
		t.Fatal(err)
	}
	huge, err := s.Submit(Request{Kind: KindATPG, Bench: bench, ATPG: &ATPGSpec{Workers: 1_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	sv, hv := waitDone(t, s, serial), waitDone(t, s, huge)
	if hv.Status != StatusDone {
		t.Fatalf("clamped job: %s (%s)", hv.Status, hv.Error)
	}
	if got, want := string(resultJSON(t, hv)), string(resultJSON(t, sv)); got != want {
		t.Fatalf("clamped job payload differs from serial:\n got %s\nwant %s", got, want)
	}
	if w, procs := s.Metrics().Gauge("atpg.parallel.workers").Value(), int64(runtime.GOMAXPROCS(0)); w > procs {
		t.Fatalf("atpg.parallel.workers = %d, above GOMAXPROCS %d", w, procs)
	}
}

// TestATPGJobWorkersKeepsFsimMetrics: the fsim.* metrics report the
// merge grader's simulation, so a workers job leaves the same
// fsim.events_per_cycle gauge and the same fsim counter increments as
// the serial job of the same request. Speculation must not add work of
// its own there or overwrite the gauge. The cache is off so both jobs
// run; GOMAXPROCS 2 keeps the service clamp from reducing workers to 1.
func TestATPGJobWorkersKeepsFsimMetrics(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	s := newTestService(t, Config{Workers: 1, CacheBytes: -1})
	rng := rand.New(rand.NewSource(7))
	c := netlist.Random(rng, netlist.RandomParams{
		Inputs: 4, Outputs: 3, Gates: 40, DFFs: 5, MaxFanin: 4,
	})
	spec := ATPGSpec{MaxFrames: 4, MaxBacktracks: 30, MaxEvalsPerFault: 20_000}
	names := []string{"fsim.evals", "fsim.cycles", "fsim.drops", "fsim.repacks"}
	// run submits one job and returns the fsim counter increments it
	// caused and the gauge it left.
	run := func(workers int) (map[string]int64, int64) {
		before := map[string]int64{}
		for _, n := range names {
			before[n] = s.Metrics().Counter(n).Value()
		}
		sp := spec
		sp.Workers = workers
		id, err := s.Submit(Request{Kind: KindATPG, Bench: netlist.BenchString(c), ATPG: &sp})
		if err != nil {
			t.Fatal(err)
		}
		if v := waitDone(t, s, id); v.Status != StatusDone {
			t.Fatalf("workers=%d: status %s, error %q", workers, v.Status, v.Error)
		}
		delta := map[string]int64{}
		for _, n := range names {
			delta[n] = s.Metrics().Counter(n).Value() - before[n]
		}
		return delta, s.Metrics().Gauge("fsim.events_per_cycle").Value()
	}
	serialDelta, serialGauge := run(0)
	parallelDelta, parallelGauge := run(2)
	if s.Metrics().Counter("atpg.parallel.runs").Value() != 1 {
		t.Fatal("the workers job did not run the speculator")
	}
	if parallelGauge != serialGauge {
		t.Errorf("fsim.events_per_cycle = %d after the workers job, %d after the serial one",
			parallelGauge, serialGauge)
	}
	for _, n := range names {
		if parallelDelta[n] != serialDelta[n] {
			t.Errorf("%s grew by %d on the workers job, %d on the serial one",
				n, parallelDelta[n], serialDelta[n])
		}
	}
}

func TestFaultSimJob(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	c := netlist.Fig2C1()
	bench := netlist.BenchString(c)

	// Vector width mismatch fails the job with a clear error.
	id, err := s.Submit(Request{Kind: KindFaultSim, Bench: bench, Tests: "0101"})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, s, id); v.Status != StatusFailed || !strings.Contains(v.Error, "bits") {
		t.Fatalf("status %s, error %q", v.Status, v.Error)
	}

	tests := "01,11,00,10,01,11"
	id, err = s.Submit(Request{Kind: KindFaultSim, Bench: bench, Tests: tests})
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, s, id)
	if v.Status != StatusDone {
		t.Fatalf("status %s, error %q", v.Status, v.Error)
	}
	lib := mustParse(t, bench)
	faults, _ := fault.Collapse(lib)
	direct := fsim.Run(lib, faults, sim.ParseSeq(tests))
	got := v.Result.FaultSim
	if got.Detected != direct.Detected() || got.Coverage != direct.Coverage() {
		t.Fatalf("detected %d cov %v, want %d cov %v",
			got.Detected, got.Coverage, direct.Detected(), direct.Coverage())
	}
	if got.Vectors != 6 || got.Faults != len(faults) {
		t.Fatalf("vectors %d faults %d", got.Vectors, got.Faults)
	}
}

func TestDeriveTestsJobMatchesFig6Flow(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	impl := netlist.Fig5N2()
	id, err := s.Submit(Request{Kind: KindDeriveTests, Bench: netlist.BenchString(impl)})
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, s, id)
	if v.Status != StatusDone {
		t.Fatalf("status %s, error %q", v.Status, v.Error)
	}
	got := v.Result.Derive
	flow, err := core.Fig6Flow(mustParse(t, netlist.BenchString(impl)), atpg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if want := vecStrings(flow.Derived); strings.Join(got.Derived, ",") != strings.Join(want, ",") {
		t.Fatalf("derived set differs from core.Fig6Flow:\n%v\nvs\n%v", got.Derived, want)
	}
	if got.ImplCoverage != flow.ImplCoverage() {
		t.Fatalf("impl coverage %v, want %v", got.ImplCoverage, flow.ImplCoverage())
	}
	if got.Prefix != flow.Pair.PrefixLengthTests() {
		t.Fatalf("prefix %d, want %d", got.Prefix, flow.Pair.PrefixLengthTests())
	}
}

// TestJobTimeout is the acceptance criterion for the pool: a job with a
// 1ms deadline on a large ATPG workload fails with a context-deadline
// error, and the pool keeps serving jobs afterwards.
func TestJobTimeout(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, DefaultTimeout: 30 * time.Second})
	rng := rand.New(rand.NewSource(5))
	big := netlist.Random(rng, netlist.RandomParams{
		Inputs: 8, Outputs: 8, Gates: 300, DFFs: 24, MaxFanin: 4,
	})
	id, err := s.Submit(Request{
		Kind:      KindATPG,
		Bench:     netlist.BenchString(big),
		ATPG:      &ATPGSpec{MaxEvalsTotal: 2_000_000},
		TimeoutMS: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, s, id)
	if v.Status != StatusFailed {
		t.Fatalf("status %s, want failed", v.Status)
	}
	if !strings.Contains(v.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("error %q does not mention the deadline", v.Error)
	}

	// Pool must still be usable.
	id, err = s.Submit(Request{Kind: KindRetime, Bench: netlist.BenchString(netlist.Fig2C1())})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, s, id); v.Status != StatusDone {
		t.Fatalf("post-timeout job status %s, error %q", v.Status, v.Error)
	}
}

func TestQueueFullAndClose(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, DefaultTimeout: 10 * time.Second})
	rng := rand.New(rand.NewSource(9))
	big := netlist.BenchString(netlist.Random(rng, netlist.RandomParams{
		Inputs: 8, Outputs: 8, Gates: 300, DFFs: 24, MaxFanin: 4,
	}))
	heavy := Request{Kind: KindATPG, Bench: big, ATPG: &ATPGSpec{MaxEvalsTotal: 50_000_000}}

	id1, err := s.Submit(heavy)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker picks job 1 up, so the queue is empty again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := s.Get(id1)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != StatusQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job 1 never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(heavy); err != nil { // fills the queue
		t.Fatal(err)
	}
	if _, err := s.Submit(heavy); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}

	s.Close() // cancels the running job, fails the queued one
	if _, err := s.Submit(heavy); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if _, err := s.Get("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get unknown: %v, want ErrNotFound", err)
	}
}

func TestMetricsRecorded(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	bench := netlist.BenchString(netlist.Fig2C1())
	id, err := s.Submit(Request{Kind: KindRetime, Bench: bench})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, id)
	reg := s.Metrics()
	if got := reg.Counter("jobs.submitted.retime").Value(); got != 1 {
		t.Fatalf("submitted counter = %d", got)
	}
	if got := reg.Counter("jobs.done.retime").Value(); got != 1 {
		t.Fatalf("done counter = %d", got)
	}
	if reg.Histogram("jobs.latency.retime").Count() != 1 {
		t.Fatal("job latency not observed")
	}
	if reg.Histogram("stage.parse.latency").Count() != 1 {
		t.Fatal("parse stage latency not observed")
	}
	if reg.Histogram("stage.retime.latency").Count() != 1 {
		t.Fatal("retime stage latency not observed")
	}
	if got := reg.Gauge("queue.depth").Value(); got != 0 {
		t.Fatalf("queue depth = %d after drain", got)
	}
}

// TestListSubmissionOrder pins List to deterministic submission order
// (ascending numeric job ID), including across the ID zero-padding
// boundary where "job-1000000" sorts lexicographically *before*
// "job-999999" and a string sort (or raw map iteration) would
// interleave old and new jobs.
func TestListSubmissionOrder(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	bench := netlist.BenchString(netlist.Fig2C1())
	s.mu.Lock()
	s.nextID = 999998 // next submissions span the 6-digit padding edge
	s.mu.Unlock()
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := s.Submit(Request{Kind: KindRetime, Bench: bench})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// The fixture only bites if string order actually disagrees with
	// submission order here.
	if ids[0] < ids[2] {
		t.Fatalf("ids %v do not cross the lexicographic boundary", ids)
	}
	views := s.List()
	if len(views) != 3 {
		t.Fatalf("listed %d jobs", len(views))
	}
	for i, v := range views {
		if v.ID != ids[i] {
			t.Fatalf("position %d: got %s, want submission order %v", i, v.ID, ids)
		}
	}
}

func mustParse(t *testing.T, bench string) *netlist.Circuit {
	t.Helper()
	// The service parses submissions under the name "job"; use the same
	// name so bench-text comparisons are exact.
	c, err := netlist.ParseBenchString("job", bench)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
