package retime

import (
	"math/rand"
	"repro/internal/fsim"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// pipelineable returns a circuit with a registered feedback structure
// and enough slack for balancing passes to move registers.
func pipelineable(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := netlist.NewBuilder("pipe").
		Inputs("a", "b").
		Gate("t1", logic.OpAnd, "a", "q0").
		Gate("t2", logic.OpOr, "t1", "b").
		Gate("t3", logic.OpAnd, "t2", "t1").
		DFF("q0", "t3").
		Gate("z", logic.OpBuf, "q0").
		Output("z").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSlackBalanceLegalAndPeriodSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 30; i++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 1 + rng.Intn(3), Outputs: 1 + rng.Intn(2),
			Gates: 4 + rng.Intn(20), DFFs: 1 + rng.Intn(4), MaxFanin: 3,
		})
		g := FromCircuit(c)
		base := g.Period()
		r := g.SlackBalance(g.Zero(), 3, base)
		if err := g.Check(r); err != nil {
			t.Fatalf("%s: balanced retiming illegal: %v", c.Name, err)
		}
		if _, p, ok := g.Delta(r); !ok || p > base {
			t.Fatalf("%s: balancing raised period %d -> %d", c.Name, base, p)
		}
		// Balancing must never move registers forward.
		m := g.AnalyzeMoves(r)
		if m.TotalForward != 0 {
			t.Fatalf("%s: balancing made forward moves: %+v", c.Name, m)
		}
	}
}

func TestSlackBalanceMovesRegisters(t *testing.T) {
	g := FromCircuit(pipelineable(t))
	base := g.Period()
	r := g.SlackBalance(g.Zero(), 2, base)
	if g.AnalyzeMoves(r).TotalBackward == 0 {
		t.Fatal("no backward movement on a circuit with slack")
	}
}

func TestForwardStemMoves(t *testing.T) {
	// Fig3L1's Q stem carries a register; a forward stem move must
	// duplicate it onto the branches and report one applied move.
	g := FromCircuit(netlist.Fig3L1())
	base := g.Period()
	r, applied := g.ForwardStemMoves(g.Zero(), 1, base)
	if applied != 1 {
		t.Fatalf("applied = %d, want 1", applied)
	}
	if err := g.Check(r); err != nil {
		t.Fatal(err)
	}
	m := g.AnalyzeMoves(r)
	if m.MaxForwardStem != 1 || m.MaxForward != 1 {
		t.Fatalf("moves = %+v", m)
	}
	if got := g.RegistersAfter(r); got != 2 {
		t.Fatalf("registers after stem move = %d, want 2", got)
	}
	// Period must be unchanged: stems have zero delay.
	if _, p, ok := g.Delta(r); !ok || p != base {
		t.Fatalf("period changed: %d -> %d", base, p)
	}
	// Asking for more moves than stems with registers caps gracefully.
	_, applied = g.ForwardStemMoves(g.Zero(), 5, base)
	if applied < 1 {
		t.Fatalf("applied = %d", applied)
	}
}

// TestSpeedStyleRetimingPreservesBehaviour: the full balance+forward
// pipeline still yields an I/O-equivalent machine after warm-up.
func TestSpeedStyleRetimingPreservesBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 15; i++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 1 + rng.Intn(3), Outputs: 1 + rng.Intn(2),
			Gates: 4 + rng.Intn(15), DFFs: 1 + rng.Intn(3), MaxFanin: 3,
		})
		g := FromCircuit(c)
		base := g.Period()
		r := g.SlackBalance(g.Zero(), 3, base)
		r, _ = g.ForwardStemMoves(r, 2, base)
		if err := g.Check(r); err != nil {
			t.Fatal(err)
		}
		rg, err := g.Retime(r)
		if err != nil {
			t.Fatal(err)
		}
		orig, _, err := g.Materialize("o")
		if err != nil {
			t.Fatal(err)
		}
		ret, _, err := rg.Materialize("r")
		if err != nil {
			t.Fatal(err)
		}
		so, sr := fsim.NewMachine(orig, nil), fsim.NewMachine(ret, nil)
		warm := 4 + len(orig.DFFs) + len(ret.DFFs)
		for step := 0; step < warm+8; step++ {
			in := make(sim.Vec, len(orig.Inputs))
			for j := range in {
				in[j] = logic.FromBool(rng.Intn(2) == 1)
			}
			oo, or := so.Step(in), sr.Step(in)
			if step < warm {
				continue
			}
			for k := range oo {
				if oo[k].Known() && or[k].Known() && oo[k] != or[k] {
					t.Fatalf("%s: speed-retimed output contradicts original", c.Name)
				}
			}
		}
	}
}
