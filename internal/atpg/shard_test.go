package atpg

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/fault"
	"repro/internal/netlist"
)

// shardLookup builds a CandidateLookup over a set of decision logs.
func shardLookup(logs ...[]DecidedFault) CandidateLookup {
	m := make(map[fault.Fault]DecidedFault)
	for _, log := range logs {
		for _, d := range log {
			m[d.Fault] = d
		}
	}
	return func(f fault.Fault) (DecidedFault, bool) {
		d, ok := m[f]
		return d, ok
	}
}

// survivorsOf returns the faults the merge loop hands its FanOut hook
// -- the random phase's survivors -- stopping the run there.
func survivorsOf(t *testing.T, c *netlist.Circuit, reps []fault.Fault, opt Options) []fault.Fault {
	t.Helper()
	errStop := errors.New("stop at the fan-out")
	var survivors []fault.Fault
	_, err := RunContextFanOut(context.Background(), c, reps, opt, func(_ context.Context, s []fault.Fault) (CandidateLookup, error) {
		survivors = s
		return nil, errStop
	})
	if err != nil && !errors.Is(err, errStop) {
		t.Fatal(err)
	}
	return survivors
}

// TestShardedByteIdentical is the distributed core contract: slicing
// the survivor list the FanOut hook receives into shards, precomputing
// each shard with GenerateShard, and merging through RunContextFanOut
// yields a Result byte-identical to Run at every shard count.
func TestShardedByteIdentical(t *testing.T) {
	ctx := context.Background()
	workloads := parallelWorkloads(t)
	for i, c := range workloads {
		reps, _ := fault.Collapse(c)
		opt := parallelOptions()
		want := Run(c, reps, opt)
		shardCounts := []int{1, 2, 4}
		if testing.Short() && i == len(workloads)-1 {
			// The synthesized dk16 FSM, parallelWorkloads' last circuit,
			// takes most of the time: -short checks it at one shard count.
			shardCounts = []int{2}
		}
		for _, shards := range shardCounts {
			got, err := RunContextFanOut(ctx, c, reps, opt, func(ctx context.Context, survivors []fault.Fault) (CandidateLookup, error) {
				logs := make([][]DecidedFault, 0, shards)
				for i := 0; i < shards; i++ {
					lo, hi := i*len(survivors)/shards, (i+1)*len(survivors)/shards
					if lo == hi {
						continue
					}
					log, err := GenerateShard(ctx, c, survivors[lo:hi], opt)
					if err != nil {
						return nil, fmt.Errorf("%s shard %d/%d: %w", c.Name, i, shards, err)
					}
					if len(log) != hi-lo {
						return nil, fmt.Errorf("%s shard %d/%d: %d decisions for %d faults", c.Name, i, shards, len(log), hi-lo)
					}
					logs = append(logs, log)
				}
				return shardLookup(logs...), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.Parallel != nil {
				t.Fatalf("%s shards=%d: Parallel stats on a candidate-fed run", c.Name, shards)
			}
			if !reflect.DeepEqual(normalize(want), normalize(got)) {
				t.Fatalf("%s: sharded result (shards=%d) differs from serial Run", c.Name, shards)
			}
		}
	}
}

// TestLookupMissFallsBackInline: an empty lookup degrades to plain
// inline generation, still byte-identical (the degenerate case the
// dispatcher hits when every shard result is lost).
func TestLookupMissFallsBackInline(t *testing.T) {
	c := parallelWorkloads(t)[2]
	reps, _ := fault.Collapse(c)
	opt := parallelOptions()
	want := Run(c, reps, opt)
	got, err := RunContextFanOut(context.Background(), c, reps, opt, func(context.Context, []fault.Fault) (CandidateLookup, error) {
		return func(fault.Fault) (DecidedFault, bool) { return DecidedFault{}, false }, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(want), normalize(got)) {
		t.Fatal("miss-everything lookup diverged from serial Run")
	}
}

// TestGenerateShardResume: a shard killed mid-flight leaves a partial
// checkpoint; resuming it (on "another backend") replays the decided
// prefix without re-running PODEM and completes to the identical log.
func TestGenerateShardResume(t *testing.T) {
	ctx := context.Background()
	c := parallelWorkloads(t)[2]
	reps, _ := fault.Collapse(c)
	opt := parallelOptions()
	survivors := survivorsOf(t, c, reps, opt)
	if len(survivors) < 4 {
		t.Skipf("only %d survivors, need a few to split", len(survivors))
	}
	full, err := GenerateShard(ctx, c, survivors, opt)
	if err != nil {
		t.Fatal(err)
	}

	// First attempt dies after deciding half the shard: cancel via a
	// context the OnWrite callback trips at the halfway mark.
	half := len(survivors) / 2
	actx, cancel := context.WithCancel(ctx)
	var partial *Checkpoint
	opt1 := opt
	opt1.Checkpoint = CheckpointConfig{
		Every: 1,
		OnWrite: func(ck *Checkpoint, _ error) {
			if len(ck.Decided) >= half && partial == nil {
				snap, err := DecodeCheckpoint(ck.Encode())
				if err != nil {
					t.Errorf("snapshot partial checkpoint: %v", err)
					return
				}
				partial = snap
				cancel()
			}
		},
	}
	prefix, err := GenerateShard(actx, c, survivors, opt1)
	if err == nil {
		t.Fatal("cancelled shard returned no error")
	}
	if partial == nil {
		t.Fatal("no partial checkpoint captured")
	}
	if len(prefix) < half {
		t.Fatalf("decided prefix %d < %d", len(prefix), half)
	}

	// Resume from the partial: replayed entries must not re-run PODEM
	// (fresh = total - replayed), and the final log must be identical.
	fresh := 0
	failpoint.Enable(FailpointShardFault, func() error { fresh++; return nil })
	defer failpoint.Disable(FailpointShardFault)
	opt2 := opt
	opt2.Checkpoint = CheckpointConfig{ResumeFrom: partial}
	resumed, err := GenerateShard(ctx, c, survivors, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(survivors) - len(partial.Decided); fresh != want {
		t.Fatalf("resumed shard ran PODEM on %d faults, want %d (replay must not recompute)", fresh, want)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Fatal("resumed shard log differs from the uninterrupted one")
	}
}

// TestShardCheckpointRoundTrip: ShardCheckpoint output survives the
// wire (Encode/Decode) and validates against its own identity.
func TestShardCheckpointRoundTrip(t *testing.T) {
	ctx := context.Background()
	c := parallelWorkloads(t)[0]
	reps, _ := fault.Collapse(c)
	opt := parallelOptions()
	survivors := survivorsOf(t, c, reps, opt)
	log, err := GenerateShard(ctx, c, survivors, opt)
	if err != nil {
		t.Fatal(err)
	}
	ck := ShardCheckpoint(c, survivors, opt, log)
	back, err := DecodeCheckpoint(ck.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(c, survivors, opt); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Decided, log) {
		t.Fatal("decision log mutated on the wire")
	}
	// And against a different fault list it must not validate.
	if len(survivors) > 1 {
		if err := back.Validate(c, survivors[1:], opt); err == nil {
			t.Fatal("checkpoint validated against the wrong fault list")
		}
	}
}

// TestFanOutSkippedWhenNothingSurvives: when the random phase detects
// every fault the FanOut hook is never called and the result still
// equals Run.
func TestFanOutSkippedWhenNothingSurvives(t *testing.T) {
	c, err := netlist.ParseBenchString("and2", "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c)
	opt := DefaultOptions()
	want := Run(c, reps, opt)
	if det, _, _ := want.Counts(); det != len(reps) || len(want.Tests) == 0 {
		t.Fatalf("random phase detected %d of %d faults with %d tests; the test needs all", det, len(reps), len(want.Tests))
	}
	got, err := RunContextFanOut(context.Background(), c, reps, opt, func(context.Context, []fault.Fault) (CandidateLookup, error) {
		t.Error("FanOut called with nothing left after the random phase")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(want), normalize(got)) {
		t.Fatal("result differs from serial Run")
	}
}
