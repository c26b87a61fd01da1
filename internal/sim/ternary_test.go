package sim_test

import (
	"math/rand"
	"testing"

	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// These tests pin the paper's 3-valued simulation claims on the
// repository's scalar simulator, the fault-free fsim.Machine, and check
// it against the binary oracle BinarySim.

// TestFig2SyncBehaviour reproduces the paper's Fig. 2 claims at the raw
// simulation level: <11> drives C1 to state 1 and C2 to state (x,1)
// (covering {01,11}) with 3-valued simulation from unknown initial state.
func TestFig2SyncBehaviour(t *testing.T) {
	c1 := fsim.NewMachine(netlist.Fig2C1(), nil)
	c1.Step(sim.ParseVec("11"))
	if got := sim.VecString(c1.State()); got != "1" {
		t.Errorf("C1 state after <11> = %s, want 1", got)
	}
	if !c1.Synchronized() {
		t.Error("C1 must be structurally synchronized by <11>")
	}

	c2 := fsim.NewMachine(netlist.Fig2C2(), nil)
	c2.Step(sim.ParseVec("11"))
	if got := sim.VecString(c2.State()); got != "x1" {
		t.Errorf("C2 state after <11> = %s, want x1 (covers {01,11})", got)
	}
}

// TestFig3SyncBehaviour reproduces the Fig. 3 / Example 1 claims:
// <11> is not structural-based for L1, does not synchronize L2, but any
// single-vector prefix followed by <11> drives L2 to state 11.
func TestFig3SyncBehaviour(t *testing.T) {
	l1 := fsim.NewMachine(netlist.Fig3L1(), nil)
	l1.Step(sim.ParseVec("11"))
	if l1.Synchronized() {
		t.Error("<11> must not be a structural-based synchronizing sequence for L1")
	}
	// Functionally <11> synchronizes L1 to 1: check both initial states.
	for _, init := range []string{"0", "1"} {
		l1.SetState(sim.ParseVec(init))
		l1.Step(sim.ParseVec("11"))
		if got := sim.VecString(l1.State()); got != "1" {
			t.Errorf("L1 from %s after <11> = %s, want 1", init, got)
		}
	}
	// <11> does not synchronize L2 even functionally: initial state 01
	// goes to 00, others go to 11.
	l2 := fsim.NewMachine(netlist.Fig3L2(), nil)
	l2.SetState(sim.ParseVec("01"))
	l2.Step(sim.ParseVec("11"))
	if got := sim.VecString(l2.State()); got != "00" {
		t.Errorf("L2 from 01 after <11> = %s, want 00", got)
	}
	l2.SetState(sim.ParseVec("11"))
	l2.Step(sim.ParseVec("11"))
	if got := sim.VecString(l2.State()); got != "11" {
		t.Errorf("L2 from 11 after <11> = %s, want 11", got)
	}
	// Theorem 2 instance: every 1-vector prefix then <11> puts L2 in 11,
	// functionally from every initial state.
	for _, prefix := range []string{"00", "01", "10", "11"} {
		for init := uint64(0); init < 4; init++ {
			l2.SetState(sim.UnpackVec(init, 2))
			l2.Step(sim.ParseVec(prefix))
			l2.Step(sim.ParseVec("11"))
			if got := sim.VecString(l2.State()); got != "11" {
				t.Errorf("L2 from %d after <%s,11> = %s, want 11", init, prefix, got)
			}
		}
	}
}

// TestFig5FaultFreeSync checks that <001,000> is a structural-based
// synchronizing sequence for the fault-free N1 (it ends in state 000).
func TestFig5FaultFreeSync(t *testing.T) {
	n1 := fsim.NewMachine(netlist.Fig5N1(), nil)
	n1.Run(sim.ParseSeq("001,000"))
	if got := sim.VecString(n1.State()); got != "000" {
		t.Errorf("N1 state after <001,000> = %s, want 000", got)
	}
}

func TestStepOutputs(t *testing.T) {
	c := netlist.Fig2C1()
	s := fsim.NewMachine(c, nil)
	s.SetState(sim.ParseVec("1"))
	out := s.Step(sim.ParseVec("00"))
	// Z = BUF(Q) observes the pre-step state.
	if sim.VecString(out) != "1" {
		t.Errorf("Z = %s, want 1", sim.VecString(out))
	}
	// Next state: OR(AND(0,0), NOT(1)) = 0.
	if sim.VecString(s.State()) != "0" {
		t.Errorf("state = %s, want 0", sim.VecString(s.State()))
	}
}

func TestResetGivesUnknown(t *testing.T) {
	s := fsim.NewMachine(netlist.Fig5N1(), nil)
	s.SetState(sim.ParseVec("101"))
	s.Reset()
	if sim.VecString(s.State()) != "xxx" {
		t.Fatalf("state after Reset = %s", sim.VecString(s.State()))
	}
}

func TestPanicsOnWidthMismatch(t *testing.T) {
	s := fsim.NewMachine(netlist.Fig2C1(), nil)
	for _, f := range []func(){
		func() { s.Step(sim.ParseVec("1")) },
		func() { s.SetState(sim.ParseVec("11")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestBinaryMatchesTernary cross-checks BinarySim against the 3-valued
// fsim.Machine: with fully
// binary state and inputs they must agree exactly.
func TestBinaryMatchesTernary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 1 + rng.Intn(4), Outputs: 1 + rng.Intn(3),
			Gates: 1 + rng.Intn(25), DFFs: rng.Intn(5), MaxFanin: 3,
		})
		ts := fsim.NewMachine(c, nil)
		bs := sim.NewBinary(c)
		state := rng.Uint64() & (bs.NumStates() - 1)
		for step := 0; step < 10; step++ {
			in := rng.Uint64() & (bs.NumInputs() - 1)
			ts.SetState(sim.UnpackVec(state, len(c.DFFs)))
			tout := ts.Step(sim.UnpackVec(in, len(c.Inputs)))
			next, bout := bs.Step(state, in)
			if sim.PackVec(tout) != bout {
				t.Fatalf("%s: output mismatch ternary %s binary %b", c.Name, sim.VecString(tout), bout)
			}
			if sim.PackVec(ts.State()) != next {
				t.Fatalf("%s: next-state mismatch", c.Name)
			}
			state = next
		}
	}
}

// TestTernaryIsSoundAbstraction: wherever 3-valued simulation from an
// all-X state produces a binary value, every binary initial state must
// produce that same value.
func TestTernaryIsSoundAbstraction(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 40; iter++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 1 + rng.Intn(3), Outputs: 1 + rng.Intn(3),
			Gates: 1 + rng.Intn(20), DFFs: 1 + rng.Intn(4), MaxFanin: 3,
		})
		ts := fsim.NewMachine(c, nil)
		bs := sim.NewBinary(c)
		seq := make(sim.Seq, 4)
		for i := range seq {
			seq[i] = sim.UnpackVec(rng.Uint64()&(bs.NumInputs()-1), len(c.Inputs))
		}
		touts := ts.Run(seq)
		tstate := ts.State()
		for init := uint64(0); init < bs.NumStates(); init++ {
			state := init
			for step, in := range seq {
				var bout uint64
				state, bout = bs.Step(state, sim.PackVec(in))
				for i := range c.Outputs {
					tv := touts[step][i]
					bv := logic.FromBool(bout>>uint(i)&1 != 0)
					if tv.Known() && tv != bv {
						t.Fatalf("%s: ternary output %s contradicts binary %s (init %d step %d)",
							c.Name, tv, bv, init, step)
					}
				}
			}
			for i := range c.DFFs {
				tv := tstate[i]
				bv := logic.FromBool(state>>uint(i)&1 != 0)
				if tv.Known() && tv != bv {
					t.Fatalf("%s: ternary state %s contradicts binary %s", c.Name, tv, bv)
				}
			}
		}
	}
}
