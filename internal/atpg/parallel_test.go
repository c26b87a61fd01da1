package atpg

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/fsmgen"
	"repro/internal/netlist"
)

// normalize strips the fields the byte-identity contract excludes:
// wall-clock time and the speculation bookkeeping.
func normalize(r *Result) *Result {
	cp := *r
	cp.Effort.Time = 0
	cp.Parallel = nil
	return &cp
}

// parallelWorkloads returns the circuits the identity and determinism
// tests run over: the paper's figure circuits plus seeded random
// sequential circuits and a synthesized FSM benchmark.
func parallelWorkloads(t *testing.T) []*netlist.Circuit {
	t.Helper()
	circuits := []*netlist.Circuit{netlist.Fig2C1(), netlist.Fig5N1()}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2; i++ {
		circuits = append(circuits, netlist.Random(rng, netlist.RandomParams{
			Inputs: 3 + rng.Intn(3), Outputs: 2 + rng.Intn(3),
			Gates: 25 + rng.Intn(25), DFFs: 3 + rng.Intn(4), MaxFanin: 4,
		}))
	}
	fsm, _, err := fsmgen.Benchmark("dk16")
	if err != nil {
		t.Fatalf("benchmark FSM: %v", err)
	}
	c, err := fsmgen.Synthesize(fsm, fsmgen.SynthOptions{})
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	circuits = append(circuits, c)
	return circuits
}

func parallelOptions() Options {
	opt := DefaultOptions()
	opt.RandomLength = 16
	opt.RandomCount = 4
	opt.MaxFrames = 4
	opt.MaxBacktracks = 30
	opt.MaxEvalsPerFault = 20_000
	return opt
}

// TestParallelByteIdentical is the core contract: a Workers run equals
// the serial Run at every worker count, not just Workers=1, because shards only
// precompute what the deterministic merge would have computed anyway.
func TestParallelByteIdentical(t *testing.T) {
	workloads := parallelWorkloads(t)
	for i, c := range workloads {
		reps, _ := fault.Collapse(c)
		want := Run(c, reps, parallelOptions())
		workerCounts := []int{1, 2, 4, 8}
		if testing.Short() && i == len(workloads)-1 {
			// The synthesized dk16 FSM, parallelWorkloads' last circuit,
			// takes most of the time: -short checks it at two workers.
			workerCounts = []int{2}
		}
		for _, workers := range workerCounts {
			opt := parallelOptions()
			opt.Workers = workers
			got, _ := RunContext(context.Background(), c, reps, opt)
			if workers <= 1 && got.Parallel != nil {
				t.Fatalf("%s workers=%d: Parallel stats on a serial run", c.Name, workers)
			}
			if workers > 1 {
				if got.Parallel == nil {
					t.Fatalf("%s workers=%d: missing Parallel stats", c.Name, workers)
				}
				if got.Parallel.Workers != workers {
					t.Fatalf("%s: Parallel.Workers = %d, want %d", c.Name, got.Parallel.Workers, workers)
				}
				if got.Parallel.Speculated != got.Parallel.Used+got.Parallel.Wasted {
					t.Fatalf("%s: speculated %d != used %d + wasted %d", c.Name,
						got.Parallel.Speculated, got.Parallel.Used, got.Parallel.Wasted)
				}
			}
			if !reflect.DeepEqual(normalize(want), normalize(got)) {
				t.Fatalf("%s workers=%d: result differs from Run", c.Name, workers)
			}
		}
	}
}

// TestParallelDeterministicRepeated re-runs each worker count many
// times: scheduling noise must never reach the output. Run under -race
// this doubles as the data-race gauntlet for the speculator.
func TestParallelDeterministicRepeated(t *testing.T) {
	repeats := 20
	if testing.Short() {
		repeats = 5
	}
	circuits := parallelWorkloads(t)
	// One circuit is enough for the repeat gauntlet; a mid-size random
	// sequential circuit keeps 60+ full runs affordable in CI while
	// still exercising shard contention.
	c := circuits[2]
	reps, _ := fault.Collapse(c)
	want := Run(c, reps, parallelOptions())
	for _, workers := range []int{2, 4, 8} {
		opt := parallelOptions()
		opt.Workers = workers
		for i := 0; i < repeats; i++ {
			got, _ := RunContext(context.Background(), c, reps, opt)
			if !reflect.DeepEqual(want.Tests, got.Tests) {
				t.Fatalf("workers=%d repeat=%d: Tests differ", workers, i)
			}
			if !reflect.DeepEqual(want.Status, got.Status) {
				t.Fatalf("workers=%d repeat=%d: Status differs", workers, i)
			}
			if want.FaultCoverage() != got.FaultCoverage() {
				t.Fatalf("workers=%d repeat=%d: coverage %f != %f",
					workers, i, want.FaultCoverage(), got.FaultCoverage())
			}
		}
	}
}

// TestParallelCancellation checks the RunContext contract under the
// sharded engine: a cancelled run returns the context error, a partial
// result, and joins every shard worker (no goroutine leak, enforced by
// -race and test timeout).
func TestParallelCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := netlist.Random(rng, netlist.RandomParams{
		Inputs: 6, Outputs: 6, Gates: 300, DFFs: 16, MaxFanin: 4,
	})
	reps, _ := fault.Collapse(c)
	opt := parallelOptions()
	opt.Workers = 4

	// Already-cancelled context: immediate stop, empty-ish result.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, c, reps, opt)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if res == nil {
		t.Fatal("cancelled run returned nil result")
	}

	// Mid-run cancellation: must stop well before an uncancelled run
	// would and still return a consistent partial result.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	res2, err2 := RunContext(ctx2, c, reps, opt)
	if err2 == nil && res2.FaultEfficiency() < 100 {
		t.Fatal("timed-out run reported no error without finishing")
	}
	for f, st := range res2.Status {
		if st == StatusDetected {
			continue
		}
		_ = f // aborted/redundant entries are fine on a partial run
	}
}

// TestParallelWorkersOptionPlumbed checks Options.Workers alone
// engages the sharded engine through Run.
func TestParallelWorkersOptionPlumbed(t *testing.T) {
	c := netlist.Fig2C1()
	reps, _ := fault.Collapse(c)
	opt := smallOptions()
	opt.Workers = 3
	res := Run(c, reps, opt)
	if res.Parallel == nil || res.Parallel.Workers != 3 {
		t.Fatalf("Options.Workers did not reach the engine: %+v", res.Parallel)
	}
	want := smallOptions()
	ref := Run(c, reps, want)
	if !reflect.DeepEqual(normalize(ref), normalize(res)) {
		t.Fatal("Workers=3 via Options differs from serial Run")
	}
}

// TestParallelRetiredSlotSkipped drives the speculator the way merge
// does, over more survivors than the initial window: a fault the driver
// retires before its frontier reaches it is skipped by the worker that
// claims it (never generated) and counted as fortuitous, and every
// other target's candidate equals inline generation.
func TestParallelRetiredSlotSkipped(t *testing.T) {
	c := parallelWorkloads(t)[2]
	reps, _ := fault.Collapse(c)
	opt := parallelOptions()
	opt.Workers = 2
	window := specWindow * opt.Workers
	if len(reps) < window+4 {
		t.Fatalf("need more than %d survivors, have %d", window+3, len(reps))
	}
	survivors := reps[:window+4]
	retired := window + 2

	sp := newSpeculator(context.Background(), c, opt, survivors, newEngine(c, opt))
	// Workers hold window tokens, so slot `retired` is out of their reach
	// until the driver requests a slot at or beyond it.
	sp.retired([]fault.Fault{survivors[retired]})
	for i, f := range survivors {
		if i == retired {
			continue // merge never targets a retired fault
		}
		got := sp.next(f)
		if want := newEngine(c, opt).candidate(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("slot %d: candidate differs from inline generation", i)
		}
	}
	// The frontier now covers every slot, so each worker scans to the
	// end of the list and returns on its own.
	sp.wg.Wait()
	sp.close()
	if cand := <-sp.slots[retired].cand; cand != nil {
		t.Fatal("a worker generated a candidate for the retired fault")
	}
	st := sp.stats()
	if st.Fortuitous != 1 {
		t.Fatalf("Fortuitous = %d, want 1", st.Fortuitous)
	}
	if st.Speculated != st.Used+st.Wasted {
		t.Fatalf("speculated %d != used %d + wasted %d", st.Speculated, st.Used, st.Wasted)
	}
	if got := st.Speculated + st.DriverGenerated; got != int64(len(survivors)-1) {
		t.Fatalf("speculated %d + driver-generated %d != %d targets",
			st.Speculated, st.DriverGenerated, len(survivors)-1)
	}
}
