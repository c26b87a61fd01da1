package fsim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// TestParallelMatchesSequential checks the acceptance criterion: the
// concurrent engine produces identical DetectedAt maps on randomized
// circuits, including fault lists large enough to span many groups (Run
// spreads lists above ParallelThreshold across GOMAXPROCS workers).
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs:   4 + rng.Intn(4),
			Outputs:  3 + rng.Intn(3),
			Gates:    60 + rng.Intn(120),
			DFFs:     5 + rng.Intn(10),
			MaxFanin: 4,
		})
		faults := fault.Universe(c) // uncollapsed: typically several hundred
		seq := randomSeq(rng, len(c.Inputs), 40)

		seqRes := RunSequential(c, faults, seq)
		parRes := Run(c, faults, seq)
		if len(seqRes.DetectedAt) != len(parRes.DetectedAt) {
			t.Fatalf("trial %d: detected %d sequential vs %d parallel",
				trial, len(seqRes.DetectedAt), len(parRes.DetectedAt))
		}
		for f, at := range seqRes.DetectedAt {
			pat, ok := parRes.DetectedAt[f]
			if !ok || pat != at {
				t.Fatalf("trial %d: fault %s detected at %d sequential, %d (present=%v) parallel",
					trial, f.Name(c), at, pat, ok)
			}
		}
	}
}

// TestRunDispatch checks Run's path selection: small lists stay on the
// sequential engine, and both paths agree either way.
func TestRunDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := netlist.Random(rng, netlist.RandomParams{
		Inputs: 5, Outputs: 4, Gates: 80, DFFs: 8, MaxFanin: 3,
	})
	faults := fault.Universe(c)
	if len(faults) <= ParallelThreshold {
		t.Fatalf("test circuit too small: %d faults", len(faults))
	}
	seq := randomSeq(rng, len(c.Inputs), 30)
	auto := Run(c, faults, seq)
	ref := RunSequential(c, faults, seq)
	if len(auto.DetectedAt) != len(ref.DetectedAt) {
		t.Fatalf("Run detected %d, sequential %d", len(auto.DetectedAt), len(ref.DetectedAt))
	}
	small := faults[:GroupWidth]
	if got, want := Run(c, small, seq).Detected(), RunSequential(c, small, seq).Detected(); got != want {
		t.Fatalf("small-list Run detected %d, sequential %d", got, want)
	}
}

// TestParallelEmptyAndTinyLists exercises the degenerate sizes.
func TestParallelEmptyAndTinyLists(t *testing.T) {
	c := netlist.Fig2C1()
	seq := randomSeq(rand.New(rand.NewSource(3)), len(c.Inputs), 10)
	if res := Run(c, nil, seq); res.Detected() != 0 {
		t.Fatal("empty fault list detected faults")
	}
	faults := fault.Universe(c)[:1]
	seqRes := RunSequential(c, faults, seq)
	parRes := Run(c, faults, seq)
	if seqRes.Detected() != parRes.Detected() {
		t.Fatalf("single fault: %d vs %d", seqRes.Detected(), parRes.Detected())
	}
}

// benchWorkload builds a deterministic >=1000-fault workload for the
// speedup benchmarks.
func benchWorkload(b *testing.B) (*netlist.Circuit, []fault.Fault, sim.Seq) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	c := netlist.Random(rng, netlist.RandomParams{
		Inputs: 8, Outputs: 8, Gates: 400, DFFs: 32, MaxFanin: 4,
	})
	faults := fault.Universe(c)
	if len(faults) < 1000 {
		b.Fatalf("workload has only %d faults", len(faults))
	}
	return c, faults, randomSeq(rng, len(c.Inputs), 64)
}

func BenchmarkFsimSequential(b *testing.B) {
	c, faults, seq := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunSequential(c, faults, seq)
	}
}

func BenchmarkFsimParallel(b *testing.B) {
	c, faults, seq := benchWorkload(b)
	b.Run(fmt.Sprintf("procs=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Run(c, faults, seq)
		}
	})
}

// BenchmarkFsimEventDriven measures the steady-state event-driven path
// on the same >=1000-fault workload as the sequential oracle: one
// persistent Simulator, rearmed per iteration, so the construction cost
// (group packing, engines, trajectory arenas, maps) is paid once
// outside the loop and the number is the per-run simulate cost the
// ATPG grading loop actually pays. The remaining per-op allocation is
// the returned newly-detected slice. BenchmarkFsimColdStart keeps the
// old from-scratch measurement for comparison.
func BenchmarkFsimEventDriven(b *testing.B) {
	c, faults, seq := benchWorkload(b)
	s := NewSimulator(c, faults)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Rearm()
		s.Simulate(seq)
	}
}

// BenchmarkFsimColdStart measures the one-shot entry point (Run builds
// a fresh Simulator per op); the delta against BenchmarkFsimEventDriven
// is the construction cost the steady-state path amortizes away.
func BenchmarkFsimColdStart(b *testing.B) {
	c, faults, seq := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(c, faults, seq)
	}
}

// BenchmarkFsimIncremental measures the persistent-Simulator pattern
// ATPG uses: the sequence arrives in chunks, state carries over, and
// detected faults are dropped (and their groups repacked) between
// chunks instead of being re-simulated.
func BenchmarkFsimIncremental(b *testing.B) {
	c, faults, seq := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSimulator(c, faults)
		for start := 0; start < len(seq); start += 8 {
			end := start + 8
			if end > len(seq) {
				end = len(seq)
			}
			s.Simulate(seq[start:end])
		}
	}
}
