package core

import (
	"math/rand"
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/retime"
	"repro/internal/sim"
)

func cheapATPG() atpg.Options {
	opt := atpg.DefaultOptions()
	opt.RandomLength = 32
	opt.RandomCount = 2
	opt.MaxFrames = 6
	opt.MaxBacktracks = 50
	opt.MaxEvalsPerFault = 200_000
	return opt
}

// fig3Pair builds the L1 -> L2 transformation of Fig. 3 as a retimed
// pair: a single forward move across the fanout stem of Q.
func fig3Pair(t *testing.T) *RetimedPair {
	t.Helper()
	g := retime.FromCircuit(netlist.Fig3L1())
	r := g.Zero()
	moved := false
	for v := range g.Verts {
		if g.Verts[v].Kind == retime.VStem && g.Verts[v].Name == "Q#stem" {
			r[v] = -1
			moved = true
		}
	}
	if !moved {
		t.Fatal("Q#stem vertex not found")
	}
	pair, err := BuildPair(g, r, "L1", "L2")
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

func TestFig3PairShape(t *testing.T) {
	p := fig3Pair(t)
	if got := p.PrefixLengthTests(); got != 1 {
		t.Errorf("test prefix = %d, want 1", got)
	}
	if got := p.PrefixLengthFaultFree(); got != 1 {
		t.Errorf("fault-free prefix = %d, want 1", got)
	}
	if len(p.Original.DFFs) != 1 || len(p.Retimed.DFFs) != 2 {
		t.Errorf("DFF counts %d/%d, want 1/2", len(p.Original.DFFs), len(p.Retimed.DFFs))
	}
	// The materialized retimed circuit must behave like the hand-built
	// Fig3L2 (compare 3-valued I/O on random stimuli).
	ref := netlist.Fig3L2()
	rng := rand.New(rand.NewSource(51))
	sa, sb := fsim.NewMachine(p.Retimed, nil), fsim.NewMachine(ref, nil)
	for step := 0; step < 40; step++ {
		in := sim.Vec{logic.FromBool(rng.Intn(2) == 1), logic.FromBool(rng.Intn(2) == 1)}
		oa, ob := sa.Step(in), sb.Step(in)
		if sim.VecString(oa) != sim.VecString(ob) {
			t.Fatalf("materialized L2 deviates from Fig3L2 at step %d", step)
		}
	}
}

func TestDeriveTestSet(t *testing.T) {
	p := fig3Pair(t)
	orig := sim.ParseSeq("11,01")
	derived := p.DeriveTestSet(orig, FillOnes, 0)
	if len(derived) != 3 {
		t.Fatalf("derived length %d", len(derived))
	}
	if sim.VecString(derived[0]) != "11" {
		t.Fatalf("prefix = %s, want ones", sim.VecString(derived[0]))
	}
	if sim.SeqString(derived[1:]) != "11,01" {
		t.Fatalf("payload = %s", sim.SeqString(derived[1:]))
	}
	zeros := p.DeriveTestSet(orig, FillZeros, 0)
	if sim.VecString(zeros[0]) != "00" {
		t.Fatal("zero fill broken")
	}
	r1 := p.DeriveTestSet(orig, FillRandom, 7)
	r2 := p.DeriveTestSet(orig, FillRandom, 7)
	if sim.SeqString(r1) != sim.SeqString(r2) {
		t.Fatal("random fill must be seed-deterministic")
	}
}

func TestMapSyncSequence(t *testing.T) {
	p := fig3Pair(t)
	mapped := p.MapSyncSequence(sim.ParseSeq("11"), false, FillZeros, 0)
	if sim.SeqString(mapped) != "00,11" {
		t.Fatalf("mapped = %s", sim.SeqString(mapped))
	}
	// Theorem 2 instance: the mapped sequence synchronizes the retimed
	// circuit functionally (both consistent initial states end in 11).
	s := fsim.NewMachine(p.Retimed, nil)
	for init := uint64(0); init < 4; init++ {
		s.SetState(sim.UnpackVec(init, 2))
		for _, v := range mapped {
			s.Step(v)
		}
		if got := sim.PackVec(s.State()); got != 3 {
			t.Fatalf("mapped sequence left state %d from init %d", got, init)
		}
	}
}

func TestCorrespondenceNonEmptyBothWays(t *testing.T) {
	p := fig3Pair(t)
	// Paper, Section IV.B: "for every fault on a line in a retimed
	// circuit, there is at least one corresponding fault in the original
	// circuit."
	for _, f := range fault.Universe(p.Retimed) {
		if len(p.CorrespondingInOriginal(f)) == 0 {
			t.Fatalf("retimed fault %s has no corresponding original fault", f.Name(p.Retimed))
		}
	}
	// The reverse direction holds for all faults except those on the
	// original's stem register Q, which sat between two fanout points:
	// removing it merges a segment that has no single stuck-at site in
	// L2 (its effect there is a multiple fault, cf. Example 2).
	for _, f := range fault.Universe(p.Original) {
		corr := p.CorrespondingInRetimed(f)
		isOldStemReg := p.Original.Nodes[f.Node].Kind == netlist.KindDFF
		if isOldStemReg {
			if len(corr) != 0 {
				t.Fatalf("vanished stem register fault %s should map to a multiple fault (empty)", f.Name(p.Original))
			}
			continue
		}
		if len(corr) == 0 {
			t.Fatalf("original fault %s has no corresponding retimed fault", f.Name(p.Original))
		}
	}
}

// TestPreservationFig3 runs the full Theorem 4 check on the Fig. 3 pair
// with an ATPG-generated test set, for every prefix fill mode.
func TestPreservationFig3(t *testing.T) {
	p := fig3Pair(t)
	faults, _ := fault.Collapse(p.Original)
	res := atpg.Run(p.Original, faults, cheapATPG())
	if res.FaultCoverage() < 80 {
		t.Fatalf("ATPG coverage %.1f too low to be meaningful", res.FaultCoverage())
	}
	for _, fill := range []PrefixFill{FillZeros, FillOnes, FillRandom} {
		rep, err := p.CheckPreservation(res.TestSet, fill, 3)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Expected == 0 {
			t.Fatal("no expected detections; check is vacuous")
		}
		if len(rep.Violations) != 0 {
			for _, v := range rep.Violations {
				t.Errorf("fill %d: violation %s", fill, v.Name(p.Retimed))
			}
			t.Fatalf("Theorem 4 violated with fill %d", fill)
		}
	}
}

// TestPreservationProperty is the randomized Corollary 1 check: for
// random circuits and random legal retimings, the derived test set
// detects every retimed fault whose corresponding original faults are
// all detected.
func TestPreservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for iter := 0; iter < 12; iter++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 1 + rng.Intn(3), Outputs: 1 + rng.Intn(2),
			Gates: 4 + rng.Intn(15), DFFs: 1 + rng.Intn(4), MaxFanin: 3,
		})
		pair, err := RandomPair(c, rng, 20)
		if err != nil {
			t.Fatal(err)
		}
		faults, _ := fault.Collapse(pair.Original)
		res := atpg.Run(pair.Original, faults, cheapATPG())
		fill := PrefixFill(iter % 3)
		rep, err := pair.CheckPreservation(res.TestSet, fill, int64(iter))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) != 0 {
			for _, v := range rep.Violations {
				t.Errorf("%s: violation %s (prefix %d)", c.Name, v.Name(pair.Retimed), rep.Prefix)
			}
			t.Fatalf("%s: Theorem 4 violated (iter %d)", c.Name, iter)
		}
	}
}

// TestMinPeriodPairFig2 exercises the performance-retiming direction
// used by Table II.
func TestMinPeriodPairFig2(t *testing.T) {
	pair, before, after, err := MinPeriodPair(netlist.Fig2C1())
	if err != nil {
		t.Fatal(err)
	}
	if before != 4 || after != 3 {
		t.Fatalf("periods %d -> %d, want 4 -> 3", before, after)
	}
	if pair.Moves.TotalBackward == 0 {
		t.Fatal("min-period retiming of C1 should use backward moves")
	}
	faults, _ := fault.Collapse(pair.Original)
	res := atpg.Run(pair.Original, faults, cheapATPG())
	rep, err := pair.CheckPreservation(res.TestSet, FillZeros, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations on Fig2 min-period pair: %d", len(rep.Violations))
	}
}

// TestFig6Flow runs the retime-for-testability technique end to end on
// a performance-retimed circuit and checks the derived test set reaches
// the coverage the easy-circuit ATPG achieved.
func TestFig6Flow(t *testing.T) {
	// Build a "hard" implemented circuit: Fig2C1 retimed to min period.
	pair, _, _, err := MinPeriodPair(netlist.Fig2C1())
	if err != nil {
		t.Fatal(err)
	}
	impl := pair.Retimed

	out, err := Fig6Flow(impl, cheapATPG())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.Pair.Original.DFFs); got > len(impl.DFFs) {
		t.Fatalf("testability retiming increased registers: %d > %d", got, len(impl.DFFs))
	}
	if out.EasyATPG.FaultCoverage() < 80 {
		t.Fatalf("easy ATPG coverage %.1f", out.EasyATPG.FaultCoverage())
	}
	if out.ImplCoverage() < out.EasyATPG.FaultCoverage()-15 {
		t.Fatalf("derived coverage %.1f much below easy coverage %.1f",
			out.ImplCoverage(), out.EasyATPG.FaultCoverage())
	}
	if len(out.Derived) < len(out.EasyATPG.TestSet) {
		t.Fatal("derived set lost vectors")
	}
}

func TestPrefixVectors(t *testing.T) {
	if got := PrefixVectors(0, 3, FillZeros, 0); len(got) != 0 {
		t.Fatal("zero-length prefix should be empty")
	}
	p := PrefixVectors(2, 3, FillOnes, 0)
	if sim.SeqString(p) != "111,111" {
		t.Fatalf("ones prefix = %s", sim.SeqString(p))
	}
}

// TestCorollary1NoNewRedundancy spot-checks Corollary 1's consequence:
// faults detectable in the original have all their corresponding
// retimed faults detectable (here: detected by a derived complete-ish
// test set), so retiming introduced no newly undetectable faults among
// them.
func TestCorollary1NoNewRedundancy(t *testing.T) {
	p := fig3Pair(t)
	faults, _ := fault.Collapse(p.Original)
	res := atpg.Run(p.Original, faults, cheapATPG())
	derived := p.DeriveTestSet(res.TestSet, FillZeros, 0)
	retFaults, repRet := fault.Collapse(p.Retimed)
	retRes := fsim.Run(p.Retimed, retFaults, derived)
	_, repOrig := fault.Collapse(p.Original)
	origRes := fsim.Run(p.Original, faults, res.TestSet)
	for _, f := range fault.Universe(p.Original) {
		if _, det := origRes.DetectedAt[repOrig[f]]; !det {
			continue
		}
		// Every corresponding retimed fault all of whose original
		// correspondents are detected must be detected. For faults on
		// unmodified lines correspondence is 1:1 both ways, so this
		// reduces to plain preservation.
		for _, rf := range p.CorrespondingInRetimed(f) {
			back := p.CorrespondingInOriginal(rf)
			allDet := true
			for _, of := range back {
				if _, det := origRes.DetectedAt[repOrig[of]]; !det {
					allDet = false
					break
				}
			}
			if !allDet {
				continue
			}
			if _, det := retRes.DetectedAt[repRet[rf]]; !det {
				t.Fatalf("retimed fault %s undetected though all correspondents detected", rf.Name(p.Retimed))
			}
		}
	}
}
