package dispatch

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/failpoint"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/netlist"
)

// testWorkload returns a seeded random sequential circuit big enough
// to shard meaningfully, with its collapsed fault list.
func testWorkload(t *testing.T, seed int64) (*netlist.Circuit, []fault.Fault) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := netlist.Random(rng, netlist.RandomParams{
		Inputs: 4, Outputs: 3, Gates: 40, DFFs: 4, MaxFanin: 4,
	})
	reps, _ := fault.Collapse(c)
	return c, reps
}

func testOptions() atpg.Options {
	opt := atpg.DefaultOptions()
	opt.RandomLength = 16
	opt.RandomCount = 4
	opt.MaxFrames = 4
	opt.MaxBacktracks = 30
	opt.MaxEvalsPerFault = 20_000
	return opt
}

// normalize strips the fields the byte-identity contract excludes.
func normalize(r *atpg.Result) *atpg.Result {
	cp := *r
	cp.Effort.Time = 0
	cp.Parallel = nil
	return &cp
}

func locals(names ...string) []Backend {
	bs := make([]Backend, len(names))
	for i, n := range names {
		bs[i] = NewLocal(n)
	}
	return bs
}

// testConfig is a chaos-test friendly baseline: fast retries, no
// heartbeat timing dependence, deterministic jitter.
func testConfig(backends []Backend, reg *metrics.Registry) Config {
	return Config{
		Backends:         backends,
		RetryBackoff:     time.Millisecond,
		RetryBackoffCap:  4 * time.Millisecond,
		HeartbeatEvery:   -1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		CheckpointEvery:  1,
		Metrics:          reg,
		Seed:             1,
	}
}

// survivorsOf returns the faults RunShards fans out on a fresh run --
// the random phase's survivors -- by stopping a run at its fan-out.
func survivorsOf(t *testing.T, c *netlist.Circuit, reps []fault.Fault, opt atpg.Options) []fault.Fault {
	t.Helper()
	errStop := errors.New("stop at the fan-out")
	var survivors []fault.Fault
	_, err := atpg.RunContextFanOut(context.Background(), c, reps, opt, func(_ context.Context, s []fault.Fault) (atpg.CandidateLookup, error) {
		survivors = s
		return nil, errStop
	})
	if err != nil && !errors.Is(err, errStop) {
		t.Fatal(err)
	}
	return survivors
}

// TestDispatchByteIdentical: the merged result equals serial atpg.Run
// at 1, 2 and 4 backends, across shard counts.
func TestDispatchByteIdentical(t *testing.T) {
	c, reps := testWorkload(t, 7)
	opt := testOptions()
	want := atpg.Run(c, reps, opt)
	for _, n := range []int{1, 2, 4} {
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('A' + i))
		}
		reg := metrics.NewRegistry()
		d := New(testConfig(locals(names...), reg))
		got, err := d.RunShards(context.Background(), c, reps, opt, 0)
		if err != nil {
			t.Fatalf("backends=%d: %v", n, err)
		}
		if got.Parallel != nil {
			t.Fatalf("backends=%d: Parallel stats on a dispatched run", n)
		}
		if !reflect.DeepEqual(normalize(want), normalize(got)) {
			t.Fatalf("backends=%d: dispatched result differs from serial Run", n)
		}
		if s := reg.Counter("dispatch.shards").Value(); s < int64(n) {
			t.Fatalf("backends=%d: dispatch.shards=%d, want >= %d", n, s, n)
		}
		if p := reg.Counter("dispatch.poisoned").Value(); p != 0 {
			t.Fatalf("backends=%d: clean run counted %d poisoned checkpoints", n, p)
		}
	}
}

// TestDispatchRetryLadder drives the failure table of the fan-out
// layer under one roof: first-try success, retry-then-success,
// migrate-after-kill, and all-backends-down degrade -- each asserting
// byte-identity against serial atpg.Run plus the metric trail the
// scenario must leave.
func TestDispatchRetryLadder(t *testing.T) {
	c, reps := testWorkload(t, 11)
	opt := testOptions()
	want := atpg.Run(c, reps, opt)
	ctx := context.Background()

	check := func(t *testing.T, got *atpg.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalize(want), normalize(got)) {
			t.Fatal("result differs from serial Run")
		}
	}

	t.Run("first-try-success", func(t *testing.T) {
		reg := metrics.NewRegistry()
		d := New(testConfig(locals("A", "B"), reg))
		got, err := d.RunShards(ctx, c, reps, opt, 0)
		check(t, got, err)
		if r := reg.Counter("dispatch.retries").Value(); r != 0 {
			t.Fatalf("clean run retried %d times", r)
		}
		if g := reg.Counter("dispatch.degraded").Value(); g != 0 {
			t.Fatalf("clean run degraded %d shards", g)
		}
	})

	t.Run("retry-then-success", func(t *testing.T) {
		// Backend A refuses its first two shard attempts, then recovers
		// (its breaker cooldown is 0 here so it stays pickable); the
		// ladder must absorb the failures.
		reg := metrics.NewRegistry()
		cfg := testConfig(locals("A"), reg)
		cfg.BreakerThreshold = 5 // keep A pickable through the failures
		cfg.MaxAttempts = 3
		fails := 0
		failpoint.Enable(FailpointBackendPrefix+"A", func() error {
			if fails < 2 {
				fails++
				return errors.New("chaos: backend refused")
			}
			return nil
		})
		defer failpoint.Disable(FailpointBackendPrefix + "A")
		d := New(cfg)
		got, err := d.RunShards(ctx, c, reps, opt, 1)
		check(t, got, err)
		if r := reg.Counter("dispatch.retries").Value(); r != 2 {
			t.Fatalf("dispatch.retries=%d, want 2", r)
		}
		if g := reg.Counter("dispatch.degraded").Value(); g != 0 {
			t.Fatalf("recovered run degraded %d shards", g)
		}
	})

	t.Run("migrate-after-kill", func(t *testing.T) {
		// One shard, two backends. The shard's first attempt (on A, the
		// round-robin start) is killed mid-flight after two faults are
		// decided and checkpointed; A's breaker opens (threshold 1), so
		// the retry lands on B with A's checkpoint -- a migration. The
		// injection counter proves the decided prefix is not recomputed.
		reg := metrics.NewRegistry()
		cfg := testConfig(locals("A", "B"), reg)
		d := New(cfg)
		survivors := survivorsOf(t, c, reps, opt)
		if len(survivors) < 3 {
			t.Skipf("only %d survivors", len(survivors))
		}
		calls := 0
		failpoint.Enable(atpg.FailpointShardFault, func() error {
			calls++
			if calls == 3 {
				return errors.New("chaos: backend killed mid-shard")
			}
			return nil
		})
		defer failpoint.Disable(atpg.FailpointShardFault)
		got, err := d.RunShards(ctx, c, reps, opt, 1)
		check(t, got, err)
		if m := reg.Counter("dispatch.migrations").Value(); m != 1 {
			t.Fatalf("dispatch.migrations=%d, want 1", m)
		}
		if b := reg.Counter("dispatch.breaker_open").Value(); b != 1 {
			t.Fatalf("dispatch.breaker_open=%d, want 1", b)
		}
		// First attempt injected 3 times (2 decided + the kill); the
		// migrated attempt replays those 2 and injects once per
		// remaining fault. Anything more means recomputation.
		if want := len(survivors) + 1; calls != want {
			t.Fatalf("shard fault injections=%d, want %d (migrated work recomputed?)", calls, want)
		}
	})

	t.Run("all-backends-down-degrade", func(t *testing.T) {
		// Every backend refuses every attempt: each shard must walk its
		// ladder dry and degrade to in-process execution, still
		// byte-identical.
		reg := metrics.NewRegistry()
		cfg := testConfig(locals("A", "B"), reg)
		cfg.MaxAttempts = 2
		d := New(cfg)
		for _, n := range []string{"A", "B"} {
			name := FailpointBackendPrefix + n
			failpoint.Enable(name, failpoint.Errorf("chaos: backend down"))
			defer failpoint.Disable(name)
		}
		got, err := d.RunShards(ctx, c, reps, opt, 0)
		check(t, got, err)
		if g := reg.Counter("dispatch.degraded").Value(); g < 1 {
			t.Fatal("no shard degraded with every backend down")
		}
		if b := reg.Counter("dispatch.breaker_open").Value(); b != 2 {
			t.Fatalf("dispatch.breaker_open=%d, want 2", b)
		}
	})
}

// TestHeartbeatOpensBreaker: a backend whose health probe fails is
// benched by the heartbeat loop alone -- shards route around it before
// ever attempting it.
func TestHeartbeatOpensBreaker(t *testing.T) {
	c, reps := testWorkload(t, 13)
	opt := testOptions()
	want := atpg.Run(c, reps, opt)

	reg := metrics.NewRegistry()
	cfg := testConfig(locals("A", "B"), reg)
	cfg.HeartbeatEvery = 2 * time.Millisecond
	cfg.BreakerThreshold = 2
	d := New(cfg)

	name := FailpointBackendPrefix + "A.health"
	failpoint.Enable(name, failpoint.Errorf("chaos: torn heartbeat"))
	defer failpoint.Disable(name)

	got, err := d.RunShards(context.Background(), c, reps, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(want), normalize(got)) {
		t.Fatal("result differs from serial Run")
	}
	if b := reg.Counter("dispatch.breaker_open").Value(); b < 1 {
		t.Fatal("failing heartbeat never opened the breaker")
	}
}

// TestDispatchNoBackends: an empty dispatcher is plain local execution.
func TestDispatchNoBackends(t *testing.T) {
	c, reps := testWorkload(t, 17)
	opt := testOptions()
	want := atpg.Run(c, reps, opt)
	d := New(Config{})
	got, err := d.RunShards(context.Background(), c, reps, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(want), normalize(got)) {
		t.Fatal("backend-less dispatch differs from serial Run")
	}
}

// TestDispatchCancel: context cancellation surfaces instead of
// degrading or spinning the retry ladder.
func TestDispatchCancel(t *testing.T) {
	c, reps := testWorkload(t, 19)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := New(testConfig(locals("A"), metrics.NewRegistry()))
	if _, err := d.RunShards(ctx, c, reps, testOptions(), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// faultRecorder counts how often each fault was handed to a backend.
type faultRecorder struct {
	mu   sync.Mutex
	seen map[fault.Fault]int
}

func (r *faultRecorder) take() map[fault.Fault]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := r.seen
	r.seen = nil
	return seen
}

// recordingLocal is a Local backend that records every shard fault it
// is asked to decide.
type recordingLocal struct {
	*Local
	rec *faultRecorder
}

func (b recordingLocal) Run(ctx context.Context, spec ShardSpec, progress Progress) ([]atpg.DecidedFault, error) {
	b.rec.mu.Lock()
	if b.rec.seen == nil {
		b.rec.seen = make(map[fault.Fault]int)
	}
	for _, f := range spec.Faults {
		b.rec.seen[f]++
	}
	b.rec.mu.Unlock()
	return b.Local.Run(ctx, spec, progress)
}

// TestDispatchResumeShardsUndecided: a distributed run that resumes
// from a partial checkpoint at opt.Checkpoint.Path fans out only the
// faults the checkpoint left undecided -- the random-phase survivors
// minus its decided faults and minus the faults its replayed tests
// detect -- and still merges to a result byte-identical to atpg.Run.
func TestDispatchResumeShardsUndecided(t *testing.T) {
	c, reps := testWorkload(t, 7)
	opt := testOptions()
	want := atpg.Run(c, reps, opt)
	ctx := context.Background()
	rec := &faultRecorder{}
	backends := []Backend{recordingLocal{NewLocal("A"), rec}, recordingLocal{NewLocal("B"), rec}}

	// A fresh distributed run shards every random-phase survivor once.
	if _, err := New(testConfig(backends, nil)).RunShards(ctx, c, reps, opt, 0); err != nil {
		t.Fatal(err)
	}
	survivors := survivorsOf(t, c, reps, opt)
	if len(survivors) < 4 {
		t.Fatalf("only %d survivors; the test needs a few", len(survivors))
	}
	seen := rec.take()
	for _, f := range survivors {
		if seen[f] != 1 {
			t.Fatalf("fresh run sharded survivor %v %d times, want 1", f, seen[f])
		}
	}
	if len(seen) != len(survivors) {
		t.Fatalf("fresh run sharded %d faults for %d survivors", len(seen), len(survivors))
	}

	// A partial checkpoint of the same run, cut halfway through the
	// deterministic phase, left where a retried job finds it.
	var snaps [][]byte
	full := opt
	full.Checkpoint = atpg.CheckpointConfig{Every: 1, OnWrite: func(ck *atpg.Checkpoint, _ error) {
		snaps = append(snaps, ck.Encode())
	}}
	atpg.Run(c, reps, full)
	if len(snaps) < 3 {
		t.Fatalf("only %d checkpoints written", len(snaps))
	}
	ck, err := atpg.DecodeCheckpoint(snaps[len(snaps)/2])
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Decided) == 0 {
		t.Fatal("halfway checkpoint decided nothing")
	}
	path := filepath.Join(t.TempDir(), "job.ckpt")
	if err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	// What the checkpoint leaves undecided: drop its decided faults,
	// then let its tests detect what they detect.
	s := fsim.NewSimulator(c, survivors)
	for _, d := range ck.Decided {
		s.Drop(d.Fault)
	}
	for _, d := range ck.Decided {
		if d.Status == atpg.StatusDetected && s.LiveCount() > 0 {
			s.Reset()
			s.Simulate(d.Seq)
		}
	}
	undecided := s.Remaining()

	resumed := opt
	var installed bool
	resumed.Checkpoint = atpg.CheckpointConfig{Path: path, OnResume: func(ok bool, _ error) { installed = ok }}
	got, err := New(testConfig(backends, nil)).RunShards(ctx, c, reps, resumed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !installed {
		t.Fatal("the distributed run did not resume from the checkpoint")
	}
	if !reflect.DeepEqual(normalize(want), normalize(got)) {
		t.Fatal("resumed distributed result differs from serial Run")
	}
	seen = rec.take()
	for _, f := range undecided {
		if seen[f] != 1 {
			t.Errorf("undecided fault %v sharded %d times, want 1", f, seen[f])
		}
		delete(seen, f)
	}
	if len(seen) > 0 {
		t.Errorf("resumed run sharded %d faults its checkpoint had already settled (%d survivors, %d undecided)",
			len(seen), len(survivors), len(undecided))
	}
}
