package fsim

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// steadyStateAllocBudget pins the per-Simulate allocation count of a
// warmed single-worker Simulator that detects nothing new: the arenas,
// group pool, detection scratch and trajectory rows are all recycled,
// so the budget is zero. scripts/check.sh fails the build when a
// change regresses it.
const steadyStateAllocBudget = 0

// parallelSteadyStateAllocBudget bounds the parallel path, which pays
// one channel, one closure per worker and the WaitGroup escapes per
// Simulate call (workers are spawned per call, not per block). With 4
// workers the measured cost is ~10 allocations; 24 leaves headroom for
// scheduler noise without letting a per-block or per-group regression
// slip through.
const parallelSteadyStateAllocBudget = 24

// TestSimulateSteadyStateAllocs is the allocation-regression gate for
// the tentpole claim: once a Simulator has run a sequence length once
// (arenas sized, groups repacked), further Reset+Simulate rounds on the
// single-worker path allocate nothing at all.
func TestSimulateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(5))
	c := netlist.Random(rng, netlist.RandomParams{
		Inputs: 6, Outputs: 6, Gates: 150, DFFs: 12, MaxFanin: 4,
	})
	faults := fault.Universe(c)
	seq := randomSeq(rng, len(c.Inputs), 96)
	s := NewSimulator(c, faults)
	s.SetMaxWorkers(1)
	// Warm-up: the first call grows every arena and detects what the
	// sequence can detect; the second settles the post-detection repack.
	s.Simulate(seq)
	s.Reset()
	s.Simulate(seq)
	allocs := testing.AllocsPerRun(20, func() {
		s.Reset()
		s.Simulate(seq)
	})
	if allocs > steadyStateAllocBudget {
		t.Fatalf("steady-state Simulate allocates %.1f objects/run, budget %d",
			allocs, steadyStateAllocBudget)
	}
}

// TestSimulateParallelSteadyStateAllocs pins the parallel path's
// per-call coordination cost: O(workers) allocations per Simulate call
// regardless of sequence length or group count.
func TestSimulateParallelSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(9))
	c := netlist.Random(rng, netlist.RandomParams{
		Inputs: 6, Outputs: 6, Gates: 200, DFFs: 16, MaxFanin: 4,
	})
	faults := fault.Universe(c)
	seq := randomSeq(rng, len(c.Inputs), 160) // two good-machine blocks
	s := NewSimulator(c, faults)
	s.SetMaxWorkers(4)
	s.Simulate(seq)
	s.Reset()
	s.Simulate(seq)
	// The multi-worker branch runs only while the live list is above
	// ParallelThreshold; the warm-up must not have detected it below.
	if s.LiveCount() <= ParallelThreshold {
		t.Fatalf("only %d live faults after warm-up; need > %d for the parallel path",
			s.LiveCount(), ParallelThreshold)
	}
	allocs := testing.AllocsPerRun(20, func() {
		s.Reset()
		s.Simulate(seq)
	})
	if allocs > parallelSteadyStateAllocBudget {
		t.Fatalf("parallel steady-state Simulate allocates %.1f objects/run, budget %d",
			allocs, parallelSteadyStateAllocBudget)
	}
}

// machineStepAllocBudget pins the per-Step allocation count of the
// scalar Machine: the returned output vector is the only allocation,
// because the gate-input buffer is reused across gates and cycles.
const machineStepAllocBudget = 1

// TestMachineStepAllocs is the allocation-regression gate for the
// scalar 3-valued simulator, run on the good machine of the paper's
// Fig. 2 C1 and Fig. 5 N1.
func TestMachineStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, c := range []*netlist.Circuit{netlist.Fig2C1(), netlist.Fig5N1()} {
		m := NewMachine(c, nil)
		in := make(sim.Vec, len(c.Inputs))
		m.Step(in)
		allocs := testing.AllocsPerRun(100, func() { m.Step(in) })
		if allocs > machineStepAllocBudget {
			t.Errorf("%s: Machine.Step allocates %.1f objects/call, budget %d",
				c.Name, allocs, machineStepAllocBudget)
		}
	}
}
