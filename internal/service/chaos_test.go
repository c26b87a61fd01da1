package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/netlist"
)

// The chaos suite drives the pipeline through the failures the journal,
// failpoints and cooperative cancellation exist for: crashes between
// compute and commit, cancels racing running work, overload, panicking
// stages, shutdown mid-job. The invariants under all of them:
//
//   - no goroutine leaks once the dust settles;
//   - every accepted job reaches exactly one terminal state (metrics
//     and journal agree -- nothing lost, nothing double-counted);
//   - a re-run job produces a byte-identical result (the library is
//     deterministic, so recovery is exact, not approximate).

// settleGoroutines polls until the goroutine count drops back to at
// most base, failing after two seconds. Cancellation is cooperative,
// so interrupted stages need a moment to unwind.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines did not settle: %d > %d\n%s", runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func heavyATPGRequest(t *testing.T, seed int64) Request {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	big := netlist.Random(rng, netlist.RandomParams{
		Inputs: 8, Outputs: 8, Gates: 300, DFFs: 24, MaxFanin: 4,
	})
	return Request{
		Kind:  KindATPG,
		Bench: netlist.BenchString(big),
		ATPG:  &ATPGSpec{MaxEvalsTotal: 500_000_000},
	}
}

func quickRequest() Request {
	return Request{Kind: KindRetime, Bench: netlist.BenchString(netlist.Fig2C1())}
}

// TestCancelRunningJob interrupts a heavy ATPG mid-run: the job must
// reach StatusCancelled promptly (cooperative checks fire every few
// hundred PODEM decisions) and the worker goroutine must fully unwind
// -- the regression test for the abandoned-computation leak.
func TestCancelRunningJob(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 1, DefaultTimeout: time.Minute})
	id, err := s.Submit(heavyATPGRequest(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually running so the cancel hits mid-stage.
	waitStatus(t, s, id, StatusRunning)

	start := time.Now()
	if _, err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, s, id)
	if v.Status != StatusCancelled {
		t.Fatalf("status %s, error %q", v.Status, v.Error)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancel took %v; cooperative checks are not firing", d)
	}
	if got := s.Metrics().Counter("jobs.cancelled.atpg").Value(); got != 1 {
		t.Fatalf("jobs.cancelled.atpg = %d", got)
	}
	// Cancelling a terminal job is a no-op, not an error.
	if v, err := s.Cancel(id); err != nil || v.Status != StatusCancelled {
		t.Fatalf("re-cancel: %v / %s", err, v.Status)
	}
	if _, err := s.Cancel("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown: %v", err)
	}
	s.Close()
	settleGoroutines(t, base)
}

// TestCancelQueuedJob retires a job before a worker ever picks it up.
func TestCancelQueuedJob(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, DefaultTimeout: time.Minute})
	gate := make(chan struct{})
	failpoint.Enable("stage.parse", func() error { <-gate; return nil })
	defer close(gate)
	defer failpoint.DisableAll()

	blocker, err := s.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, blocker, StatusRunning)
	queued, err := s.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, s, queued); v.Status != StatusCancelled {
		t.Fatalf("queued job finished %s, want cancelled", v.Status)
	}
	if v, err := s.Get(queued); err != nil || v.Attempt != 0 {
		t.Fatalf("cancelled-while-queued job ran anyway: attempt %d (%v)", v.Attempt, err)
	}
}

// TestNoGoroutineLeakOnDeadline is the regression test for the
// satellite fix: before it, runJob abandoned its compute goroutine on
// deadline and a stream of timeouts accumulated leaked goroutines
// still burning CPU. Now the worker joins the computation, which
// unwinds within one cooperative check.
func TestNoGoroutineLeakOnDeadline(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 2, DefaultTimeout: time.Minute})
	req := heavyATPGRequest(t, 9)
	req.TimeoutMS = 1
	for i := 0; i < 6; i++ {
		id, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if v := waitDone(t, s, id); v.Status != StatusFailed {
			t.Fatalf("status %s, want failed (deadline)", v.Status)
		}
	}
	s.Close()
	settleGoroutines(t, base)
}

// TestCrashRecovery is the durability acceptance test. A service with a
// journal accepts jobs; a chaos failpoint then drops every terminal
// journal write, simulating a process that dies after computing results
// but before committing them. The "crashed" instance is closed, a new
// one recovers from the same journal, re-queues exactly the uncommitted
// jobs, re-runs them -- and, the library being deterministic, produces
// byte-identical results to the lost run.
func TestCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")

	// First life: run a quick job cleanly, then lose the terminal
	// entries of two more.
	s1, err := Open(Config{Workers: 1, JournalPath: path, DefaultTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	committed, err := s1.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	vCommitted := waitDone(t, s1, committed)
	if vCommitted.Status != StatusDone {
		t.Fatalf("committed job: %s", vCommitted.Status)
	}

	for _, ev := range []string{evDone, evFailed, evCancelled} {
		failpoint.Enable(fpJournalBeforeWrite+"."+ev, failpoint.Errorf("chaos: crash before %s commit", ev))
	}
	defer failpoint.DisableAll()

	lost1, err := s1.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	lost2, err := s1.Submit(Request{
		Kind: KindATPG, Bench: netlist.BenchString(netlist.Fig2C1()),
	})
	if err != nil {
		t.Fatal(err)
	}
	vLost1 := waitDone(t, s1, lost1)
	vLost2 := waitDone(t, s1, lost2)
	if vLost1.Status != StatusDone || vLost2.Status != StatusDone {
		t.Fatalf("lost jobs finished %s/%s", vLost1.Status, vLost2.Status)
	}
	if got := s1.Metrics().Counter("journal.errors").Value(); got != 2 {
		t.Fatalf("journal.errors = %d, want 2 dropped commits", got)
	}
	s1.Close() // the "crash": terminal states above never reached the journal
	failpoint.DisableAll()

	// Second life: recovery must re-queue exactly the two uncommitted
	// jobs and leave the committed one alone.
	s2, err := Open(Config{Workers: 2, JournalPath: path, DefaultTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Metrics().Counter("jobs.recovered").Value(); got != 2 {
		t.Fatalf("jobs.recovered = %d, want 2", got)
	}
	vAgain, err := s2.Get(committed)
	if err != nil {
		t.Fatal(err)
	}
	if vAgain.Status != StatusDone || !sameResult(t, vAgain.Result, vCommitted.Result) {
		t.Fatal("committed job did not survive recovery intact")
	}

	for id, want := range map[string]View{lost1: vLost1, lost2: vLost2} {
		v := waitDone(t, s2, id)
		if v.Status != StatusDone {
			t.Fatalf("recovered job %s finished %s: %s", id, v.Status, v.Error)
		}
		if v.Attempt != 2 {
			t.Fatalf("recovered job %s attempt = %d, want 2", id, v.Attempt)
		}
		if !sameResult(t, v.Result, want.Result) {
			t.Fatalf("recovered job %s result differs from the pre-crash run", id)
		}
	}

	// New submissions must not collide with recovered IDs.
	fresh, err := s2.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	if fresh == committed || fresh == lost1 || fresh == lost2 {
		t.Fatalf("fresh job reused ID %s", fresh)
	}
}

// TestRecoveryGivesUpAfterMaxAttempts: a job whose start is journaled
// maxAttempts times without a terminal entry is a crash-looper; the
// next recovery fails it instead of re-queueing it a fourth time.
func TestRecoveryGivesUpAfterMaxAttempts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := openJournal(path, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := quickRequest()
	j.append(journalEntry{Event: evSubmit, ID: "job-000001", Req: &req})
	for i := 1; i <= 3; i++ {
		j.append(journalEntry{Event: evStart, ID: "job-000001", Attempt: i})
	}
	j.Close()

	s, err := Open(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v := waitDone(t, s, "job-000001")
	if v.Status != StatusFailed || !strings.Contains(v.Error, "gave up after 3 attempts") {
		t.Fatalf("crash-looping job: %s %q", v.Status, v.Error)
	}
	if got := s.Metrics().Counter("jobs.recovered").Value(); got != 0 {
		t.Fatalf("jobs.recovered = %d for a given-up job", got)
	}
}

// TestRecoveryBackoff: a job that was mid-run at crash time waits out
// its backoff before re-running; cancelling it during the wait retires
// it without another attempt.
func TestRecoveryBackoff(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := openJournal(path, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := quickRequest()
	for i := 1; i <= 2; i++ {
		id := fmt.Sprintf("job-%06d", i)
		j.append(journalEntry{Event: evSubmit, ID: id, Req: &req})
		j.append(journalEntry{Event: evStart, ID: id, Attempt: 1})
	}
	j.Close()

	s, err := Open(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Cancel job 2 while it is still parked on its backoff timer.
	if _, err := s.Cancel("job-000002"); err != nil {
		t.Fatal(err)
	}
	v2 := waitDone(t, s, "job-000002")
	if v2.Status != StatusCancelled || v2.Attempt != 1 {
		t.Fatalf("parked job: %s attempt %d", v2.Status, v2.Attempt)
	}

	v1 := waitDone(t, s, "job-000001")
	if v1.Status != StatusDone || v1.Attempt != 2 {
		t.Fatalf("backed-off job: %s attempt %d (%s)", v1.Status, v1.Attempt, v1.Error)
	}
}

// TestStageFailpointFailsJob: an injected stage error fails exactly
// that job; the pool keeps serving.
func TestStageFailpointFailsJob(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	failpoint.Enable("stage.retime", failpoint.Errorf("chaos: disk on fire"))
	defer failpoint.DisableAll()

	id, err := s.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, s, id); v.Status != StatusFailed || !strings.Contains(v.Error, "disk on fire") {
		t.Fatalf("status %s, error %q", v.Status, v.Error)
	}

	failpoint.Disable("stage.retime")
	id, err = s.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, s, id); v.Status != StatusDone {
		t.Fatalf("post-chaos job: %s %q", v.Status, v.Error)
	}
}

// TestPanickingStageDoesNotKillWorker: a panic inside a stage unwinds
// into a failed job; the worker survives and keeps serving.
func TestPanickingStageDoesNotKillWorker(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	failpoint.Enable("stage.collapse", failpoint.Panic("chaos: stack smash"))
	defer failpoint.DisableAll()

	id, err := s.Submit(Request{Kind: KindATPG, Bench: netlist.BenchString(netlist.Fig2C1())})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, s, id); v.Status != StatusFailed || !strings.Contains(v.Error, "panicked") {
		t.Fatalf("status %s, error %q", v.Status, v.Error)
	}

	failpoint.DisableAll()
	id, err = s.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, s, id); v.Status != StatusDone {
		t.Fatalf("worker died with the panic: %s %q", v.Status, v.Error)
	}
}

// TestQueueFullRollsBackID: a rejected submission must not burn a job
// ID -- the journal and the store must never see gaps that look like
// lost jobs.
func TestQueueFullRollsBackID(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1, DefaultTimeout: time.Minute})
	gate := make(chan struct{})
	var gateOnce sync.Once
	closeGate := func() { gateOnce.Do(func() { close(gate) }) }
	failpoint.Enable("stage.parse", func() error { <-gate; return nil })
	defer closeGate()
	defer failpoint.DisableAll()

	running, err := s.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, running, StatusRunning)
	queued, err := s.Submit(quickRequest()) // fills the queue
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(quickRequest()); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("overflow submit %d: %v", i, err)
		}
	}
	// Drain, then check IDs stayed contiguous: two accepted jobs, so the
	// next is 3 despite three rejected submissions in between.
	closeGate()
	waitDone(t, s, running)
	waitDone(t, s, queued)
	id, err := s.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-000003" {
		t.Fatalf("next accepted ID = %s, want job-000003 (rejections must roll back)", id)
	}
}

// TestShutdownDrains: graceful shutdown lets queued and running jobs
// finish; submissions after it fail with ErrClosed.
func TestShutdownDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 1, DefaultTimeout: time.Minute})
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := s.Submit(quickRequest())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		v, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != StatusDone {
			t.Fatalf("job %s not drained: %s %q", id, v.Status, v.Error)
		}
	}
	if _, err := s.Submit(quickRequest()); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after shutdown: %v", err)
	}
	settleGoroutines(t, base)
}

// TestShutdownCutShort: an expired drain budget cancels the straggler
// instead of hanging.
func TestShutdownCutShort(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 1, DefaultTimeout: time.Minute})
	id, err := s.Submit(heavyATPGRequest(t, 13))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, id, StatusRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cut-short drain returned %v", err)
	}
	v, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Status.Terminal() {
		t.Fatalf("straggler left in %s after shutdown", v.Status)
	}
	settleGoroutines(t, base)
}

// TestConcurrentSubmitCancelGet hammers the public API from many
// goroutines (run under -race in check.sh): every accepted job must
// reach exactly one terminal state, and the terminal-state metrics must
// sum to the number of accepted jobs. The second input submits all
// four job kinds at once with the result cache off, so every job runs
// its full pipeline concurrently with the others.
func TestConcurrentSubmitCancelGet(t *testing.T) {
	bench := netlist.BenchString(netlist.Fig2C1())
	for _, tc := range []struct {
		name       string
		cacheBytes int64
		reqs       []Request
	}{
		{"retime", 0, []Request{quickRequest()}},
		{"all-kinds-cache-off", -1, []Request{
			{Kind: KindRetime, Bench: bench},
			{Kind: KindATPG, Bench: bench},
			{Kind: KindFaultSim, Bench: bench, Tests: "01,11,00,10"},
			{Kind: KindDeriveTests, Bench: bench},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := New(Config{Workers: 4, QueueDepth: 64, DefaultTimeout: time.Minute, CacheBytes: tc.cacheBytes})
			const clients = 8
			const perClient = 5
			var mu sync.Mutex
			var accepted []string
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						id, err := s.Submit(tc.reqs[(c+i)%len(tc.reqs)])
						if err != nil {
							continue // queue full under load is fine
						}
						mu.Lock()
						accepted = append(accepted, id)
						mu.Unlock()
						if (c+i)%3 == 0 {
							s.Cancel(id)
						}
						s.Get(id)
						s.List()
					}
				}(c)
			}
			wg.Wait()

			done, cancelled := 0, 0
			for _, id := range accepted {
				v := waitDone(t, s, id)
				switch v.Status {
				case StatusDone:
					done++
				case StatusCancelled:
					cancelled++
				default:
					t.Fatalf("job %s ended %s: %s", id, v.Status, v.Error)
				}
			}
			reg := s.Metrics()
			var got int64
			for _, k := range Kinds() {
				got += reg.Counter("jobs.done."+string(k)).Value() +
					reg.Counter("jobs.cancelled."+string(k)).Value() +
					reg.Counter("jobs.failed."+string(k)).Value()
			}
			if got != int64(len(accepted)) {
				t.Fatalf("terminal metrics sum %d, accepted %d (lost or duplicated terminal states)", got, len(accepted))
			}
			if done+cancelled != len(accepted) {
				t.Fatalf("done %d + cancelled %d != accepted %d", done, cancelled, len(accepted))
			}
			s.Close()
			settleGoroutines(t, base)
		})
	}
}

// waitStatus polls until the job reports the wanted status.
func waitStatus(t *testing.T, s *Service, id string, want Status) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == want {
			return
		}
		if v.Status.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", id, v.Status, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// sameResult compares two job results byte-for-byte via their JSON
// encoding (the wire format clients actually see).
func sameResult(t *testing.T, a, b *Result) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ja) == string(jb)
}
