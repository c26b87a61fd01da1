package fsim

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// TestSimulatorReuseCycles drives Simulate→Drop→repack→Simulate cycles
// on a Simulator whose arenas were already dirtied by an unrelated
// workload and Rearmed, and asserts its DetectedAt bookkeeping stays
// byte-identical to a fresh Simulator fed the exact same operation
// sequence. This is the reuse-path gate: pooled groups, recycled
// injection arenas, cleared maps and the flat trajectory arena must be
// invisible to the simulation semantics.
func TestSimulatorReuseCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs:   4 + rng.Intn(4),
			Outputs:  3 + rng.Intn(3),
			Gates:    60 + rng.Intn(100),
			DFFs:     5 + rng.Intn(10),
			MaxFanin: 4,
		})
		faults := fault.Universe(c)

		// Dirty every arena of the reused simulator, then rearm it.
		reused := NewSimulator(c, faults)
		reused.Simulate(randomSeq(rng, len(c.Inputs), 70))
		for i := 0; i < len(faults); i += 5 {
			reused.Drop(faults[i])
		}
		reused.Simulate(randomSeq(rng, len(c.Inputs), 30))
		reused.Rearm()

		fresh := NewSimulator(c, faults)
		for round := 0; round < 4; round++ {
			seq := randomSeq(rng, len(c.Inputs), 20+10*round)
			nr := reused.Simulate(seq)
			nf := fresh.Simulate(seq)
			if len(nr) != len(nf) {
				t.Fatalf("trial %d round %d: %d newly detected reused vs %d fresh",
					trial, round, len(nr), len(nf))
			}
			for i := range nr {
				if nr[i] != nf[i] {
					t.Fatalf("trial %d round %d: newly[%d] = %s reused, %s fresh",
						trial, round, i, nr[i].Name(c), nf[i].Name(c))
				}
			}
			// Drop a deterministic sample of survivors on both sides so
			// the next Simulate call's repack runs with donors.
			rem := fresh.Remaining()
			for i := 0; i < len(rem); i += 7 {
				reused.Drop(rem[i])
				fresh.Drop(rem[i])
			}
			if round%2 == 1 {
				reused.Reset()
				fresh.Reset()
			}
		}
		assertSameVerdicts(t, c, reused, fresh)
	}
}

// TestRearmMatchesFresh checks Rearm against the specification "as if
// just constructed" across worker counts {1,2,4,8}: after an arbitrary
// first life (detections, drops, repacks), a rearmed Simulator must
// reproduce the DetectedAt map of a brand-new one and of the
// sequential full-sweep oracle.
func TestRearmMatchesFresh(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(31))
	c := netlist.Random(rng, netlist.RandomParams{
		Inputs: 6, Outputs: 5, Gates: 120, DFFs: 8, MaxFanin: 4,
	})
	faults := fault.Universe(c)
	if len(faults) <= ParallelThreshold { // the rearmed run must take the multi-worker path
		t.Fatalf("test circuit too small: %d faults", len(faults))
	}
	seq := randomSeq(rng, len(c.Inputs), 50)
	oracle := RunSequential(c, faults, seq)

	for _, workers := range []int{1, 2, 4, 8} {
		s := NewSimulator(c, faults)
		runtime.GOMAXPROCS(workers)
		// First life: unrelated workload plus drops to force repacking.
		s.Simulate(randomSeq(rng, len(c.Inputs), 40))
		rem := s.Remaining()
		for i := 0; i < len(rem); i += 3 {
			s.Drop(rem[i])
		}
		s.Simulate(randomSeq(rng, len(c.Inputs), 40))

		s.Rearm()
		if s.Detected() != 0 || s.Cycles() != 0 || s.LiveCount() != len(faults) {
			t.Fatalf("workers=%d: Rearm left detected=%d cycles=%d live=%d",
				workers, s.Detected(), s.Cycles(), s.LiveCount())
		}
		s.Simulate(seq)
		if len(s.DetectedAt()) != len(oracle.DetectedAt) {
			t.Fatalf("workers=%d: rearmed detected %d, oracle %d",
				workers, len(s.DetectedAt()), len(oracle.DetectedAt))
		}
		for f, at := range oracle.DetectedAt {
			if got, ok := s.DetectedAt()[f]; !ok || got != at {
				t.Fatalf("workers=%d: fault %s detected at %d oracle, %d (present=%v) rearmed",
					workers, f.Name(c), at, got, ok)
			}
		}
	}
}

// assertSameVerdicts compares the complete verdict state of two
// simulators: detection maps (fault and cycle), live counts and the
// absolute cycle counter.
func assertSameVerdicts(t *testing.T, c *netlist.Circuit, a, b *Simulator) {
	t.Helper()
	if a.Cycles() != b.Cycles() {
		t.Fatalf("cycles: %d vs %d", a.Cycles(), b.Cycles())
	}
	if a.LiveCount() != b.LiveCount() {
		t.Fatalf("live: %d vs %d", a.LiveCount(), b.LiveCount())
	}
	da, db := a.DetectedAt(), b.DetectedAt()
	if len(da) != len(db) {
		t.Fatalf("detected: %d vs %d", len(da), len(db))
	}
	for f, at := range da {
		if bt, ok := db[f]; !ok || bt != at {
			t.Fatalf("fault %s: detected at %d vs %d (present=%v)", f.Name(c), at, bt, ok)
		}
	}
}
