package sim

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// BinarySim is an exhaustive binary-domain simulator: states and input
// vectors are packed into uint64 words (bit i is flip-flop i,
// respectively input i). It is the test oracle against which the
// 3-valued simulator (fsim.Machine) is checked: on binary states and
// inputs the two must agree exactly, and from the all-X state every
// binary value the 3-valued simulator produces must hold for every
// binary initial state. It is limited to circuits with at most 64
// flip-flops, inputs and outputs.
type BinarySim struct {
	c     *netlist.Circuit
	order []int
	val   []bool
	buf   []bool
}

// NewBinary creates a binary simulator for the circuit.
func NewBinary(c *netlist.Circuit) *BinarySim {
	if len(c.DFFs) > 64 || len(c.Inputs) > 64 || len(c.Outputs) > 64 {
		panic(fmt.Sprintf("sim: circuit %q too wide for BinarySim", c.Name))
	}
	order, _ := c.MustLevels()
	return &BinarySim{c: c, order: order, val: make([]bool, len(c.Nodes)), buf: make([]bool, 8)}
}

// Step computes one clock cycle from the packed state and input vector,
// returning the packed next state and output vector.
func (s *BinarySim) Step(state, in uint64) (next, out uint64) {
	c := s.c
	for i, id := range c.Inputs {
		s.val[id] = in>>uint(i)&1 != 0
	}
	for i, id := range c.DFFs {
		s.val[id] = state>>uint(i)&1 != 0
	}
	for _, id := range s.order {
		n := &c.Nodes[id]
		ins := s.buf[:0]
		for _, f := range n.Fanin {
			ins = append(ins, s.val[f])
		}
		s.val[id] = logic.EvalBool(n.Op, ins)
		s.buf = ins[:0]
	}
	for i, id := range c.DFFs {
		if s.val[c.Nodes[id].Fanin[0]] {
			next |= 1 << uint(i)
		}
	}
	for i, id := range c.Outputs {
		if s.val[id] {
			out |= 1 << uint(i)
		}
	}
	return next, out
}

// NumStates returns the number of binary states (2^#DFF).
func (s *BinarySim) NumStates() uint64 { return 1 << uint(len(s.c.DFFs)) }

// NumInputs returns the number of binary input vectors (2^#PI).
func (s *BinarySim) NumInputs() uint64 { return 1 << uint(len(s.c.Inputs)) }

// PackVec packs a binary vector into a uint64. It panics on X values.
func PackVec(v Vec) uint64 {
	var w uint64
	for i, x := range v {
		switch x {
		case logic.One:
			w |= 1 << uint(i)
		case logic.Zero:
		default:
			panic("sim: PackVec of unknown value")
		}
	}
	return w
}

// UnpackVec expands the low n bits of w into a vector.
func UnpackVec(w uint64, n int) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = logic.FromBool(w>>uint(i)&1 != 0)
	}
	return v
}
