// Package fsim provides sequential stuck-at fault simulation in the
// style of PROOFS: a pattern-serial, fault-parallel 3-valued simulator
// that packs 63 faulty machines plus the good machine into each 64-bit
// word pair, plus Machine, the repository's one scalar 3-valued
// simulator. A Machine with a nil fault is the good machine (bounded
// equivalence checking, ATPG's synchronization search, STG extraction);
// with a fault it serves fine-grained inspection (faulty-circuit
// synchronization, the paper's worked examples) and is the cross-check
// oracle for the parallel engine.
//
// Detection uses the safe sequential criterion: a fault is detected at
// cycle t when some primary output carries a binary value v in the good
// machine and the binary value !v in the faulty machine. Unknowns never
// count as detections, matching the paper's structural-based notion of a
// test under unknown initial state.
package fsim

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Machine is a scalar 3-valued simulator of one circuit with at most one
// injected stuck-at fault. A nil fault simulates the good machine. Reset
// models the unknown initial state by filling every flip-flop with X.
type Machine struct {
	c     *netlist.Circuit
	f     *fault.Fault
	order []int
	val   []logic.V
	state []logic.V
	buf   []logic.V // gate-input scratch sized to the widest fanin, reused across gates and cycles
}

// NewMachine creates a machine with the given fault injected (nil for
// the fault-free machine).
func NewMachine(c *netlist.Circuit, f *fault.Fault) *Machine {
	order, _ := c.MustLevels()
	fanin := 0
	for i := range c.Nodes {
		fanin = max(fanin, len(c.Nodes[i].Fanin))
	}
	m := &Machine{c: c, f: f, order: order,
		val:   make([]logic.V, len(c.Nodes)),
		state: make([]logic.V, len(c.DFFs)),
		buf:   make([]logic.V, fanin)}
	m.Reset()
	return m
}

// Reset sets every flip-flop to X.
func (m *Machine) Reset() {
	for i := range m.state {
		m.state[i] = logic.X
	}
}

// SetState forces the flip-flop contents.
func (m *Machine) SetState(state sim.Vec) {
	if len(state) != len(m.state) {
		panic(fmt.Sprintf("fsim: SetState with %d values for %d DFFs", len(state), len(m.state)))
	}
	copy(m.state, state)
}

// State returns a copy of the flip-flop contents.
func (m *Machine) State() sim.Vec { return append(sim.Vec(nil), m.state...) }

// Synchronized reports whether all flip-flops hold binary values.
func (m *Machine) Synchronized() bool { return sim.AllKnown(m.state) }

// inject applies the machine's fault to the value on the given site.
func (m *Machine) inject(site fault.Site, v logic.V) logic.V {
	if m.f != nil && m.f.Site == site {
		return m.f.SA
	}
	return v
}

// Step applies one input vector and returns the primary outputs.
func (m *Machine) Step(in sim.Vec) sim.Vec {
	c := m.c
	if len(in) != len(c.Inputs) {
		panic(fmt.Sprintf("fsim: Step with %d values for %d inputs", len(in), len(c.Inputs)))
	}
	for i, id := range c.Inputs {
		m.val[id] = m.inject(fault.Site{Node: id, Pin: fault.StemPin}, in[i])
	}
	for i, id := range c.DFFs {
		m.val[id] = m.inject(fault.Site{Node: id, Pin: fault.StemPin}, m.state[i])
	}
	for _, id := range m.order {
		n := &c.Nodes[id]
		buf := m.buf[:len(n.Fanin)]
		for pin, f := range n.Fanin {
			buf[pin] = m.inject(fault.Site{Node: id, Pin: pin}, m.val[f])
		}
		m.val[id] = m.inject(fault.Site{Node: id, Pin: fault.StemPin}, logic.Eval(n.Op, buf))
	}
	out := make(sim.Vec, len(c.Outputs))
	for i, id := range c.Outputs {
		out[i] = m.val[id]
	}
	for i, id := range c.DFFs {
		m.state[i] = m.inject(fault.Site{Node: id, Pin: 0}, m.val[c.Nodes[id].Fanin[0]])
	}
	return out
}

// Run resets the machine and applies the sequence, returning all output
// vectors.
func (m *Machine) Run(seq sim.Seq) []sim.Vec {
	m.Reset()
	outs := make([]sim.Vec, len(seq))
	for i, in := range seq {
		outs[i] = m.Step(in)
	}
	return outs
}

// DetectsSerial reports whether the sequence detects the fault using the
// scalar machines, and at which cycle. It is the reference
// implementation the parallel engine is checked against.
func DetectsSerial(c *netlist.Circuit, f fault.Fault, seq sim.Seq) (int, bool) {
	good := NewMachine(c, nil)
	bad := NewMachine(c, &f)
	for t, in := range seq {
		g := good.Step(in)
		b := bad.Step(in)
		for i := range g {
			if g[i].Known() && b[i].Known() && g[i] != b[i] {
				return t, true
			}
		}
	}
	return 0, false
}
