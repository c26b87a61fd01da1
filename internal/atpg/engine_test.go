package atpg

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// sweepLookup is a FanOut whose candidates come from an engine that
// sweeps every gate of every frame on each implication: the reference
// the event-driven engine is checked against.
func sweepLookup(c *netlist.Circuit, opt Options) FanOut {
	ref := newEngine(c, opt)
	ref.sweepOnly = true
	return func(context.Context, []fault.Fault) (CandidateLookup, error) {
		return func(f fault.Fault) (DecidedFault, bool) {
			cand := ref.candidate(f)
			return DecidedFault{Fault: f, Status: cand.status, Seq: cand.seq,
				Evals: cand.evals, Backtracks: cand.backtracks}, true
		}, nil
	}
}

// TestEventImplicationMatchesSweep requires the event-driven simulate to
// change nothing a run reports: Run equals the same run with every
// candidate generated by a full-sweep engine -- tests, statuses, evals
// and backtracks -- with and without the free-state redundancy check.
func TestEventImplicationMatchesSweep(t *testing.T) {
	workloads := parallelWorkloads(t)
	dk16 := len(workloads) - 1
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 20; i++ {
		workloads = append(workloads, netlist.Random(rng, netlist.RandomParams{
			Inputs: 2 + rng.Intn(5), Outputs: 1 + rng.Intn(4),
			Gates: 15 + rng.Intn(50), DFFs: 1 + rng.Intn(6), MaxFanin: 2 + rng.Intn(3),
		}))
	}
	for i, c := range workloads {
		reps, _ := fault.Collapse(c)
		if testing.Short() && i == dk16 {
			// The synthesized FSM takes most of the time: -short keeps
			// every fourth of its faults.
			var some []fault.Fault
			for k := 0; k < len(reps); k += 4 {
				some = append(some, reps[k])
			}
			reps = some
		}
		for _, redundant := range []bool{true, false} {
			opt := parallelOptions()
			opt.IdentifyRedundant = redundant
			opt.SyncSeed = i%2 == 0
			opt.GuidedBacktrace = i%3 != 0
			got := Run(c, reps, opt)
			want, err := RunContextFanOut(context.Background(), c, reps, opt, sweepLookup(c, opt))
			if err != nil {
				t.Fatalf("%s: reference run: %v", c.Name, err)
			}
			if !reflect.DeepEqual(normalize(got), normalize(want)) {
				t.Fatalf("%s (circuit %d, IdentifyRedundant %v): event-driven run differs from the full-sweep run: evals %d vs %d, backtracks %d vs %d, %d vs %d tests",
					c.Name, i, redundant, got.Effort.Evals, want.Effort.Evals,
					got.Effort.Backtracks, want.Effort.Backtracks, len(got.Tests), len(want.Tests))
			}
		}
	}
}

// TestEventImplicationEvaluatesLess pins the saving the event-driven
// simulate exists for: on the dropping workload it evaluates at most
// half of the gates the full sweep charges, while a full-sweep engine
// evaluates exactly what it charges. A silent return to full sweeps
// fails here although every result stays the same.
func TestEventImplicationEvaluatesLess(t *testing.T) {
	c, faults := benchDropWorkload(t)
	opt := benchDropOptions()
	event := newEngine(c, opt)
	sweep := newEngine(c, opt)
	sweep.sweepOnly = true
	var charged int64
	for i := 0; i < len(faults); i += 10 {
		got, want := event.candidate(faults[i]), sweep.candidate(faults[i])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fault %v: event-driven candidate differs from the full sweep", faults[i])
		}
		charged += got.evals
	}
	if sweep.evaluated != charged {
		t.Fatalf("full sweep evaluated %d gates, charged %d", sweep.evaluated, charged)
	}
	if event.evaluated*2 > charged {
		t.Fatalf("event-driven simulate evaluated %d of %d charged gates (%.1f%%), want at most half",
			event.evaluated, charged, 100*float64(event.evaluated)/float64(charged))
	}
	t.Logf("evaluated %d of %d charged gates (%.1f%%)", event.evaluated, charged,
		100*float64(event.evaluated)/float64(charged))
}

// TestNextDecisionAllocs requires the objective search to be
// allocation-free on a warmed engine: the X-path work list, the
// backtrace memo and its fanin lists are engine-owned buffers. It walks
// the first decisions of PODEM on the dk16 FSM, measuring every step,
// so both the unexcited and the propagating states are covered.
func TestNextDecisionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	workloads := parallelWorkloads(t)
	c := workloads[len(workloads)-1]
	reps, _ := fault.Collapse(c)
	e := newEngine(c, parallelOptions())
	steps := 0
	for _, f := range reps[:40] {
		e.f = f
		e.begin(3, false)
		for {
			e.simulate()
			if e.detected() {
				break
			}
			if a := testing.AllocsPerRun(20, func() { e.nextDecision() }); a != 0 {
				t.Fatalf("fault %v, step %d: nextDecision allocated %.1f times per call, want 0", f, steps, a)
			}
			steps++
			dec, ok := e.nextDecision()
			if !ok {
				break
			}
			e.assign(dec.frame, dec.idx, dec.v)
		}
	}
	if steps < 100 {
		t.Fatalf("measured only %d decisions", steps)
	}
}
