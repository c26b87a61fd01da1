package fsim

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// diffDetected fails the test unless the two detection maps are
// identical (same faults, same first-detection cycles).
func diffDetected(t *testing.T, label string, c *netlist.Circuit, want, got map[fault.Fault]int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: detected %d faults, oracle %d", label, len(got), len(want))
	}
	for f, wt := range want {
		gt, ok := got[f]
		if !ok {
			t.Fatalf("%s: fault %s detected by oracle at %d but missed", label, f.Name(c), wt)
		}
		if gt != wt {
			t.Fatalf("%s: fault %s detected at %d, oracle %d", label, f.Name(c), gt, wt)
		}
	}
}

// TestEventDrivenDifferential is the acceptance-criterion fuzz test:
// randomized circuits, fault lists and sequences through (a) the
// full-sweep oracle RunSequential, (b) the event-driven Run, and (c) a
// Simulator fed the same sequence as split sub-sequences with faults
// dropped in between, asserting byte-identical DetectedAt everywhere.
func TestEventDrivenDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 20; trial++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs:   2 + rng.Intn(5),
			Outputs:  1 + rng.Intn(4),
			Gates:    20 + rng.Intn(150),
			DFFs:     rng.Intn(12),
			MaxFanin: 4,
		})
		var faults []fault.Fault
		if trial%2 == 0 {
			faults = fault.Universe(c)
		} else {
			faults, _ = fault.Collapse(c)
		}
		seq := randomSeq(rng, len(c.Inputs), 8+rng.Intn(40))

		oracle := RunSequential(c, faults, seq)

		// (b) one-shot event-driven run.
		diffDetected(t, "event-driven Run", c, oracle.DetectedAt, Run(c, faults, seq).DetectedAt)

		// (c) the same sequence in random sub-sequence chunks through a
		// persistent Simulator; state carries across the splits, and
		// already-detected faults are auto-dropped (plus a few explicit
		// Drop calls on detected faults, which must be no-ops).
		s := NewSimulator(c, faults)
		var detected []fault.Fault
		for start := 0; start < len(seq); {
			n := 1 + rng.Intn(len(seq)-start)
			newly := s.Simulate(seq[start : start+n])
			detected = append(detected, newly...)
			for _, f := range newly {
				if rng.Intn(2) == 0 {
					s.Drop(f) // no-op: already detected
				}
			}
			start += n
		}
		diffDetected(t, "split Simulator", c, oracle.DetectedAt, s.DetectedAt())
		if len(detected) != len(oracle.DetectedAt) {
			t.Fatalf("Simulate returned %d newly-detected faults, oracle detected %d",
				len(detected), len(oracle.DetectedAt))
		}
		if got := len(s.Remaining()) + s.Detected(); got != len(faults) {
			t.Fatalf("remaining+detected = %d, want %d", got, len(faults))
		}
	}
}

// TestSimulatorResetMatchesIndependentRuns checks the ATPG
// fault-dropping pattern: Reset between sequences must make each
// Simulate call equivalent to an oracle run over the surviving faults
// from the all-X state.
func TestSimulatorResetMatchesIndependentRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 10; trial++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs:   3 + rng.Intn(3),
			Outputs:  2 + rng.Intn(3),
			Gates:    40 + rng.Intn(120),
			DFFs:     2 + rng.Intn(8),
			MaxFanin: 4,
		})
		faults := fault.Universe(c)
		s := NewSimulator(c, faults)
		remaining := append([]fault.Fault(nil), faults...)
		for step := 0; step < 6 && len(remaining) > 0; step++ {
			seq := randomSeq(rng, len(c.Inputs), 4+rng.Intn(20))
			oracle := RunSequential(c, remaining, seq)
			s.Reset()
			newly := s.Simulate(seq)
			if len(newly) != len(oracle.DetectedAt) {
				t.Fatalf("trial %d step %d: %d newly detected, oracle %d",
					trial, step, len(newly), len(oracle.DetectedAt))
			}
			for _, f := range newly {
				if _, ok := oracle.DetectedAt[f]; !ok {
					t.Fatalf("trial %d step %d: %s not detected by oracle", trial, step, f.Name(c))
				}
			}
			remaining = oracle.Undetected()
			// Occasionally dispose of a surviving fault out of band, the
			// way ATPG drops a fault it just generated a test for.
			if len(remaining) > 1 && rng.Intn(2) == 0 {
				s.Drop(remaining[0])
				remaining = remaining[1:]
			}
		}
		if len(s.Remaining()) != len(remaining) {
			t.Fatalf("trial %d: simulator has %d remaining, oracle path %d",
				trial, len(s.Remaining()), len(remaining))
		}
	}
}

// TestSimulatorRepacks drops two thirds of the surviving faults after
// the first sub-sequence (the ATPG disposal pattern), which drives
// every group far below half of GroupWidth, and checks that the
// resulting repack changes nothing observable: survivors keep their
// oracle detection cycles and dropped faults are never reported.
func TestSimulatorRepacks(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	c := netlist.Random(rng, netlist.RandomParams{
		Inputs: 6, Outputs: 5, Gates: 200, DFFs: 10, MaxFanin: 4,
	})
	faults := fault.Universe(c)
	if len(faults) < 4*GroupWidth {
		t.Fatalf("workload too small: %d faults", len(faults))
	}
	full := randomSeq(rng, len(c.Inputs), 60)
	const split = 10
	oracle := RunSequential(c, faults, full)

	s := NewSimulator(c, faults)
	s.Simulate(full[:split])
	dropped := make(map[fault.Fault]bool)
	for i, f := range s.Remaining() {
		if i%3 != 0 {
			s.Drop(f)
			dropped[f] = true
		}
	}
	groupsBefore := len(s.groups)
	s.Simulate(full[split:])
	if s.Stats().Repacks == 0 {
		t.Error("expected at least one repack after mass dropping")
	}
	if len(s.groups) >= groupsBefore {
		t.Errorf("groups did not shrink: %d -> %d", groupsBefore, len(s.groups))
	}
	for f, wt := range oracle.DetectedAt {
		gt, ok := s.DetectedAt()[f]
		switch {
		case dropped[f]:
			if ok {
				t.Fatalf("dropped fault %s reported detected", f.Name(c))
			}
		case !ok:
			t.Fatalf("fault %s detected by oracle at %d but missed", f.Name(c), wt)
		case gt != wt:
			t.Fatalf("fault %s detected at %d, oracle %d", f.Name(c), gt, wt)
		}
	}
	for f := range s.DetectedAt() {
		if _, ok := oracle.DetectedAt[f]; !ok {
			t.Fatalf("fault %s detected but oracle disagrees", f.Name(c))
		}
	}
}

// TestRunStatsPopulated checks the event-driven paths report work
// counters (the metrics layer depends on them).
func TestRunStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	c := netlist.Random(rng, netlist.RandomParams{
		Inputs: 4, Outputs: 3, Gates: 80, DFFs: 6, MaxFanin: 3,
	})
	faults := fault.Universe(c)
	seq := randomSeq(rng, len(c.Inputs), 20)
	res := Run(c, faults, seq)
	if res.Stats.Cycles == 0 || res.Stats.Evals == 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
	if res.Stats.EventsPerCycle() <= 0 {
		t.Fatal("events-per-cycle must be positive")
	}
	if res.Detected() > 0 && res.Stats.Drops == 0 {
		t.Fatal("detections must count as drops")
	}
}
