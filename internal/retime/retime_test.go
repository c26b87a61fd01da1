package retime

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

func TestFromCircuitFig2C1(t *testing.T) {
	c := netlist.Fig2C1()
	g := FromCircuit(c)
	if got := g.Registers(); got != 1 {
		t.Errorf("registers = %d, want 1", got)
	}
	if got := g.Period(); got != 4 {
		t.Errorf("period = %d, want 4", got)
	}
	stems := 0
	for _, v := range g.Verts {
		if v.Kind == VStem {
			stems++
		}
	}
	if stems != 1 {
		t.Errorf("stem vertices = %d, want 1 (Q fans out to G2 and Z)", stems)
	}
	if len(g.Inputs) != 2 || len(g.Outputs) != 1 {
		t.Errorf("io verts: %d inputs %d outputs", len(g.Inputs), len(g.Outputs))
	}
}

func TestPeriodMatchesNetlistDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 40; i++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 1 + rng.Intn(4), Outputs: 1 + rng.Intn(3),
			Gates: 2 + rng.Intn(25), DFFs: rng.Intn(6), MaxFanin: 4,
		})
		g := FromCircuit(c)
		// The graph may drop dangling logic the netlist still counts, so
		// compare against the materialized circuit instead.
		m, _, err := g.Materialize(c.Name + ".m")
		if err != nil {
			t.Fatal(err)
		}
		if gp, np := g.Period(), m.MaxCombDelay(); gp != np {
			t.Fatalf("%s: graph period %d != netlist delay %d", c.Name, gp, np)
		}
	}
}

func TestMinPeriodFig2(t *testing.T) {
	g := FromCircuit(netlist.Fig2C1())
	r, p, err := g.MinPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if p != 3 {
		t.Fatalf("min period = %d, want 3 (the paper's C2)", p)
	}
	rg, err := g.Retime(r)
	if err != nil {
		t.Fatal(err)
	}
	if rg.Period() != 3 {
		t.Fatalf("retimed graph period = %d", rg.Period())
	}
	m, _, err := rg.Materialize("C1.re")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MaxCombDelay(); got != 3 {
		t.Fatalf("materialized period = %d", got)
	}
	if len(m.DFFs) < 1 {
		t.Fatal("retimed circuit lost all registers")
	}
}

// TestRoundTripBehaviour: materializing the identity retiming must
// preserve 3-valued I/O behaviour exactly.
func TestRoundTripBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	circuits := []*netlist.Circuit{
		netlist.Fig2C1(), netlist.Fig2C2(), netlist.Fig3L1(), netlist.Fig3L2(),
		netlist.Fig5N1(), netlist.Fig5N2(),
	}
	for i := 0; i < 25; i++ {
		circuits = append(circuits, netlist.Random(rng, netlist.RandomParams{
			Inputs: 1 + rng.Intn(4), Outputs: 1 + rng.Intn(3),
			Gates: 2 + rng.Intn(25), DFFs: rng.Intn(6), MaxFanin: 4,
		}))
	}
	for _, c := range circuits {
		g := FromCircuit(c)
		m, lm, err := g.Materialize(c.Name + ".rt")
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		checkSameIO(t, c, m, rng, 12)
		// Every fault site of the materialized circuit must be on a line.
		for _, f := range fault.Universe(m) {
			if _, ok := lm.EdgeOf[f.Site]; !ok {
				t.Fatalf("%s: site of %s not in line map", c.Name, f.Name(m))
			}
		}
	}
}

func checkSameIO(t *testing.T, a, b *netlist.Circuit, rng *rand.Rand, steps int) {
	t.Helper()
	sa, sb := fsim.NewMachine(a, nil), fsim.NewMachine(b, nil)
	for trial := 0; trial < 3; trial++ {
		sa.Reset()
		sb.Reset()
		for i := 0; i < steps; i++ {
			in := make(sim.Vec, len(a.Inputs))
			for j := range in {
				in[j] = logic.FromBool(rng.Intn(2) == 1)
			}
			oa, ob := sa.Step(in), sb.Step(in)
			if sim.VecString(oa) != sim.VecString(ob) {
				t.Fatalf("%s vs %s: outputs diverge at step %d: %s vs %s",
					a.Name, b.Name, i, sim.VecString(oa), sim.VecString(ob))
			}
		}
	}
}

func TestCheckRejectsIllegal(t *testing.T) {
	g := FromCircuit(netlist.Fig2C1())
	r := g.Zero()
	// Lag on an input vertex is illegal.
	r[g.Inputs[0]] = 1
	if err := g.Check(r); err == nil {
		t.Error("lag on fixed vertex accepted")
	}
	r = g.Zero()
	// Find a gate vertex and push a lag that drives some weight negative.
	for v := range g.Verts {
		if g.Verts[v].Kind == VGate && len(g.Out[v]) > 0 && g.Edges[g.Out[v][0]].W == 0 {
			r[v] = -1
			break
		}
	}
	if err := g.Check(r); err == nil {
		t.Error("negative edge weight accepted")
	}
	if err := g.Check(Retiming{0}); err == nil {
		t.Error("wrong-length retiming accepted")
	}
}

func TestRegistersAfterMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 30; i++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 1 + rng.Intn(3), Outputs: 1 + rng.Intn(2),
			Gates: 3 + rng.Intn(20), DFFs: 1 + rng.Intn(5), MaxFanin: 3,
		})
		g := FromCircuit(c)
		r := g.RandomRetiming(rng, 30)
		if err := g.Check(r); err != nil {
			t.Fatalf("RandomRetiming illegal: %v", err)
		}
		rg, err := g.Retime(r)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := rg.Materialize("m")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(m.DFFs), g.RegistersAfter(r); got != want {
			t.Fatalf("%s: materialized %d DFFs, RegistersAfter says %d", c.Name, got, want)
		}
	}
}

func TestAnalyzeMoves(t *testing.T) {
	g := FromCircuit(netlist.Fig2C1())
	r := g.Zero()
	var stem, gate int = -1, -1
	for v := range g.Verts {
		switch {
		case g.Verts[v].Kind == VStem && stem < 0:
			stem = v
		case g.Verts[v].Kind == VGate && gate < 0:
			gate = v
		}
	}
	r[stem] = -2
	r[gate] = 3
	m := g.AnalyzeMoves(r)
	if m.MaxForward != 2 || m.MaxBackward != 3 {
		t.Fatalf("moves = %+v", m)
	}
	if m.MaxForwardStem != 2 || m.MaxBackwardStem != 0 {
		t.Fatalf("stem moves = %+v", m)
	}
	if m.TotalForward != 2 || m.TotalBackward != 3 {
		t.Fatalf("totals = %+v", m)
	}
}

func TestInvertCompose(t *testing.T) {
	r := Retiming{0, 2, -1, 3}
	inv := Invert(r)
	sum := Compose(r, inv)
	for _, v := range sum {
		if v != 0 {
			t.Fatalf("Compose(r, Invert(r)) = %v", sum)
		}
	}
}

// TestRetimedBehaviourAfterSync: a retimed circuit, once both circuits
// are synchronized (driven with a long shared random prefix), must
// produce identical outputs. This is the behavioural heart of retiming
// and of the paper's Theorem 4.
func TestRetimedBehaviourAfterSync(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 25; i++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 1 + rng.Intn(3), Outputs: 1 + rng.Intn(2),
			Gates: 3 + rng.Intn(20), DFFs: 1 + rng.Intn(5), MaxFanin: 3,
		})
		g := FromCircuit(c)
		orig, _, err := g.Materialize("orig")
		if err != nil {
			t.Fatal(err)
		}
		r := g.RandomRetiming(rng, 25)
		rg, err := g.Retime(r)
		if err != nil {
			t.Fatal(err)
		}
		ret, _, err := rg.Materialize("ret")
		if err != nil {
			t.Fatal(err)
		}
		so, sr := fsim.NewMachine(orig, nil), fsim.NewMachine(ret, nil)
		// Long shared warm-up so both machines flush the lag window,
		// then compare outputs wherever the original output is known.
		warm := 2 + g.AnalyzeMoves(r).MaxForward + g.AnalyzeMoves(r).MaxBackward + len(orig.DFFs) + len(ret.DFFs)
		for step := 0; step < warm+10; step++ {
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
					t.Fatalf("%s: retimed output contradicts original at step %d: %s vs %s",
						c.Name, step, sim.VecString(oo), sim.VecString(or))
				}
			}
		}
	}
}

func TestReduceRegisters(t *testing.T) {
	g := FromCircuit(netlist.Fig2C1())
	r, p, err := g.MinPeriod()
	if err != nil {
		t.Fatal(err)
	}
	before := g.RegistersAfter(r)
	// Period-preserving reduction must not break the period.
	red := g.ReduceRegisters(r, p)
	if got := g.RegistersAfter(red); got > before {
		t.Fatalf("reduction increased registers: %d -> %d", before, got)
	}
	if _, pp, ok := g.Delta(red); !ok || pp > p {
		t.Fatalf("reduction broke period: %d > %d", pp, p)
	}
	// Unconstrained reduction from the FEAS point should reach the
	// original register count (1) for this tiny circuit.
	free := g.ReduceRegisters(r, math.MaxInt)
	if got := g.RegistersAfter(free); got > 1 {
		t.Fatalf("unconstrained reduction left %d registers, want 1", got)
	}
}

func TestMinPeriodCannotBeatCombPath(t *testing.T) {
	// A circuit whose longest path is PI->PO combinational: retiming
	// cannot improve it.
	c, err := netlist.NewBuilder("fixedpath").
		Inputs("a", "b").
		Gate("g1", logic.OpAnd, "a", "b").
		Gate("g2", logic.OpOr, "g1", "a").
		Gate("z", logic.OpBuf, "g2").
		Output("z").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	g := FromCircuit(c)
	_, p, err := g.MinPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if p != g.Period() {
		t.Fatalf("min period %d differs from fixed period %d", p, g.Period())
	}
}

func TestFEASInfeasibleBelowBound(t *testing.T) {
	g := FromCircuit(netlist.Fig2C1())
	if _, ok := g.FEAS(2); ok {
		t.Fatal("period 2 must be infeasible for Fig2C1 (OR gate costs 2)")
	}
	if _, ok := g.FEAS(4); !ok {
		t.Fatal("period 4 must be feasible (identity)")
	}
}

func TestMaterializeDeterministic(t *testing.T) {
	g := FromCircuit(netlist.Fig5N1())
	a, _, err := g.Materialize("m")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := g.Materialize("m")
	if err != nil {
		t.Fatal(err)
	}
	if netlist.BenchString(a) != netlist.BenchString(b) {
		t.Fatal("Materialize is not deterministic")
	}
}

func TestVertKindString(t *testing.T) {
	if VInput.String() != "input" || VOutput.String() != "output" ||
		VGate.String() != "gate" || VStem.String() != "stem" {
		t.Fatal("VertKind.String wrong")
	}
}

// TestCorrespondingSitesFig1 reproduces the Fig. 1(a) fault
// correspondence: the line I1->Q0 and the line Q0->G in K1 both
// correspond to the line I1->G in K2 (and G->Q, Q->O in K2 both
// correspond to G->O in K1).
func TestCorrespondingSitesFig1(t *testing.T) {
	g := FromCircuit(netlist.Fig1K1())
	k1, lm1, err := g.Materialize("K1")
	if err != nil {
		t.Fatal(err)
	}
	// Retime forward across the gate G: find its vertex.
	r := g.Zero()
	for v := range g.Verts {
		if g.Verts[v].Kind == VGate && g.Verts[v].Name == "G" {
			r[v] = -1
		}
	}
	rg, err := g.Retime(r)
	if err != nil {
		t.Fatal(err)
	}
	k2, lm2, err := rg.Materialize("K2")
	if err != nil {
		t.Fatal(err)
	}
	if len(k2.DFFs) != 1 {
		t.Fatalf("K2 has %d DFFs, want 1", len(k2.DFFs))
	}
	// All sites on K1's I1 edge (I1 stem, the DFF pins, G's pin) must
	// correspond to K2 sites on the same edge: I1 stem and G's pin 0.
	i1 := fault.Site{Node: k1.MustNodeID("I1"), Pin: fault.StemPin}
	corr := CorrespondingSites(i1, lm1, lm2)
	if len(corr) == 0 {
		t.Fatal("no corresponding sites for I1 stem")
	}
	// The corresponding sites must include K2's G input pin 0 and must
	// not include any site beyond G.
	foundPin := false
	for _, s := range corr {
		if s.Node == k2.MustNodeID("G") && s.Pin == 0 {
			foundPin = true
		}
		if s.Node == k2.MustNodeID("G") && s.Pin == fault.StemPin {
			t.Fatal("G's output stem must not correspond to I1's input line")
		}
	}
	if !foundPin {
		t.Fatal("K2's G pin 0 must correspond to K1's I1 line")
	}
	// And K2's G output edge (G->Q->O) corresponds back to K1's G->O.
	gstem := fault.Site{Node: k2.MustNodeID("G"), Pin: fault.StemPin}
	back := CorrespondingSites(gstem, lm2, lm1)
	wantStem := fault.Site{Node: k1.MustNodeID("G"), Pin: fault.StemPin}
	found := false
	for _, s := range back {
		if s == wantStem {
			found = true
		}
	}
	if !found {
		t.Fatal("K2's G stem must correspond to K1's G stem")
	}
}
