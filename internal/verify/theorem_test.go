package verify

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsmgen"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/stg"
)

// The metamorphic property suite for the paper's Theorems 1-4: generate
// random circuits, apply random legal retimings, and check the
// machine-verifiable form of each preservation claim end-to-end. The
// metamorphic relation is the paper's: whatever the original circuit's
// sequences achieve (synchronization, fault detection), the
// prefix-mapped sequences must achieve on the retimed circuit. Both the
// serial ATPG and the fault-sharded Workers run feed the Theorem 4
// check, so the suite also pins the parallel engine to the contract
// that makes its speedup safe.

// theoremCircuit draws a small sequential circuit: even draws
// synthesize a random FSM (reset-free, the paper's hard case), odd
// draws use a random gate-level netlist.
func theoremCircuit(rng *rand.Rand, i int) (*netlist.Circuit, error) {
	if i%2 == 0 {
		f := fsmgen.Generate(fsmgen.GenParams{
			Name:          "thm",
			Inputs:        1 + rng.Intn(2),
			Outputs:       1 + rng.Intn(2),
			States:        3 + rng.Intn(6),
			DecisionVars:  1,
			OutputDensity: 0.4,
			Seed:          rng.Int63(),
		})
		return fsmgen.Synthesize(f, fsmgen.SynthOptions{})
	}
	return netlist.Random(rng, netlist.RandomParams{
		Inputs: 1 + rng.Intn(3), Outputs: 1 + rng.Intn(2),
		Gates: 5 + rng.Intn(20), DFFs: 1 + rng.Intn(4), MaxFanin: 3,
	}), nil
}

func theoremATPGOptions() atpg.Options {
	opt := atpg.DefaultOptions()
	opt.RandomLength = 16
	opt.RandomCount = 4
	opt.MaxFrames = 4
	opt.MaxBacktracks = 30
	opt.MaxEvalsPerFault = 20_000
	return opt
}

// TestTheorem4Metamorphic is the acceptance-criterion suite: on >= 50
// generated circuit/retiming pairs, the ATPG test set for the original
// circuit, prefix-padded per Theorem 4, detects on the retimed circuit
// every fault whose corresponding original faults it detects -- with
// the serial and fault-sharded generators producing identical test sets
// along the way.
func TestTheorem4Metamorphic(t *testing.T) {
	target := 50
	if testing.Short() {
		target = 12
	}
	rng := rand.New(rand.NewSource(1995))
	fills := []core.PrefixFill{core.FillZeros, core.FillOnes, core.FillRandom}
	workerCounts := []int{2, 4, 8}
	tested := 0
	for attempt := 0; tested < target && attempt < 12*target; attempt++ {
		c, err := theoremCircuit(rng, attempt)
		if err != nil {
			t.Fatalf("attempt %d: synthesize: %v", attempt, err)
		}
		pair, err := core.RandomPair(c, rng, 1+rng.Intn(8))
		if err != nil {
			continue
		}
		faults, _ := fault.Collapse(pair.Original)
		if len(faults) == 0 {
			continue
		}
		opt := theoremATPGOptions()
		serial := atpg.Run(pair.Original, faults, opt)
		workers := workerCounts[attempt%len(workerCounts)]
		popt := opt
		popt.Workers = workers
		parallel, _ := atpg.RunContext(context.Background(), pair.Original, faults, popt)
		if !reflect.DeepEqual(serial.TestSet, parallel.TestSet) {
			t.Fatalf("%s: Workers=%d run test set differs from Run", pair.Retimed.Name, workers)
		}
		if !reflect.DeepEqual(serial.Status, parallel.Status) {
			t.Fatalf("%s: Workers=%d run status map differs from Run", pair.Retimed.Name, workers)
		}
		if len(serial.TestSet) == 0 {
			continue
		}
		// Alternate which engine's test set feeds the preservation check
		// (they are equal, but feed both paths into fsim anyway).
		testSet := serial.TestSet
		if attempt%2 == 1 {
			testSet = parallel.TestSet
		}
		fill := fills[attempt%len(fills)]
		rep, err := pair.CheckPreservation(testSet, fill, rng.Int63())
		if err != nil {
			t.Fatalf("%s: preservation check: %v", pair.Retimed.Name, err)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("%s (prefix %d, fill %d): Theorem 4 violated for %d/%d faults, first %s",
				pair.Retimed.Name, rep.Prefix, fill, len(rep.Violations), rep.Expected,
				rep.Violations[0].Name(pair.Retimed))
		}
		if rep.Expected == 0 {
			continue // nothing was actually checked; draw another pair
		}
		tested++
	}
	if tested < target {
		t.Fatalf("only %d/%d circuit/retiming pairs exercised", tested, target)
	}
}

// equivalentSet reports whether the covered states of a ternary sync
// state are mutually equivalent in the machine (the paper's notion of
// "synchronized" for machines without a unique reset).
func equivalentSet(t *testing.T, c *netlist.Circuit, f *fault.Fault, seq sim.Seq) bool {
	t.Helper()
	st := stg.SyncState(c, f, seq)
	covered := stg.CoveredStates(st)
	if len(covered) == 1 {
		return true
	}
	m, err := stg.Extract(c, f)
	if err != nil {
		t.Skipf("machine too large: %v", err)
	}
	p, err := stg.JointEquivalence(m, m)
	if err != nil {
		t.Fatal(err)
	}
	return p.AllEquivalentB(covered)
}

// TestTheorems123Metamorphic checks the synchronizing-sequence ladder
// on random multi-move retimings:
//
//	T1: a structural sync sequence of N synchronizes N' as is,
//	T2: a functional sync sequence of N, prefixed with the stem-only
//	    prefix, is a functional sync sequence of N',
//	T3: a structural sync sequence of a faulty N^f, prefixed with the
//	    full prefix, synchronizes the corresponding faulty N'^f'.
func TestTheorems123Metamorphic(t *testing.T) {
	targetPairs := 10
	if testing.Short() {
		targetPairs = 4
	}
	rng := rand.New(rand.NewSource(404))
	tested1, tested2, tested3 := 0, 0, 0
	pairs := 0
	for attempt := 0; pairs < targetPairs && attempt < 40*targetPairs; attempt++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 1 + rng.Intn(2), Outputs: 1, Gates: 3 + rng.Intn(10),
			DFFs: 1 + rng.Intn(3), MaxFanin: 2,
		})
		pair, err := core.RandomPair(c, rng, 1+rng.Intn(10))
		if err != nil {
			continue
		}
		if len(pair.Original.DFFs) > 5 || len(pair.Retimed.DFFs) > 5 {
			continue
		}
		mo, err := stg.Extract(pair.Original, nil)
		if err != nil {
			continue
		}
		mr, err := stg.Extract(pair.Retimed, nil)
		if err != nil {
			continue
		}
		progressed := false

		// Theorem 1: structural sync sequences carry over unchanged.
		if seq, ok, err := stg.StructuralSync(pair.Original, nil, 6); err == nil && ok {
			p, err := stg.JointEquivalence(mo, mr)
			if err != nil {
				t.Fatal(err)
			}
			target := sim.PackVec(stg.SyncState(pair.Original, nil, seq))
			for _, s := range stg.CoveredStates(stg.SyncState(pair.Retimed, nil, seq)) {
				if !p.Equivalent(target, s) {
					t.Fatalf("%s: Theorem 1 violated: retimed state %b not equivalent to %b",
						c.Name, s, target)
				}
			}
			tested1++
			progressed = true
		}

		// Theorem 2: functional sync sequences carry over with the
		// fault-free (stem-only) prefix.
		if seq, ok, err := stg.FunctionalSync(mo, 6); err == nil && ok {
			mapped := pair.MapSyncSequence(seq, false, core.FillRandom, rng.Int63())
			isSync, err := stg.IsFunctionalSync(mr, mapped)
			if err != nil {
				t.Fatal(err)
			}
			if !isSync {
				t.Fatalf("%s: Theorem 2 violated: mapped functional sync (prefix %d) does not sync the retimed machine",
					c.Name, pair.PrefixLengthFaultFree())
			}
			tested2++
			progressed = true
		}

		// Theorem 3: per-fault structural sync sequences carry over with
		// the full prefix, for some corresponding fault of each retimed
		// fault (the theorem's existential form).
		universe := fault.Universe(pair.Retimed)
		rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
		if len(universe) > 6 {
			universe = universe[:6]
		}
		for _, fr := range universe {
			corr := pair.CorrespondingInOriginal(fr)
			if len(corr) == 0 {
				continue
			}
			anyFound, anyWorks := false, false
			for _, fo := range corr {
				fo := fo
				seq, ok, err := stg.StructuralSync(pair.Original, &fo, 6)
				if err != nil || !ok {
					continue
				}
				anyFound = true
				mapped := pair.MapSyncSequence(seq, true, core.FillZeros, 0)
				frc := fr
				if equivalentSet(t, pair.Retimed, &frc, mapped) {
					anyWorks = true
					break
				}
			}
			if anyFound {
				if !anyWorks {
					t.Fatalf("%s: Theorem 3 violated for %s", c.Name, fr.Name(pair.Retimed))
				}
				tested3++
				progressed = true
			}
		}
		if progressed {
			pairs++
		}
	}
	if pairs < targetPairs {
		t.Fatalf("only %d/%d pairs exercised", pairs, targetPairs)
	}
	if tested1 == 0 || tested2 == 0 || tested3 == 0 {
		t.Fatalf("coverage hole: T1 %d, T2 %d, T3 %d instances", tested1, tested2, tested3)
	}
}
