package fsim

import (
	"context"
	"math/bits"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// GroupWidth is the number of faulty machines packed per simulation
// group; bit 0 of every word pair carries the good machine.
const GroupWidth = 63

// Result reports the outcome of fault-simulating a test sequence.
type Result struct {
	Circuit *netlist.Circuit
	Faults  []fault.Fault // the simulated (typically collapsed) fault list

	// DetectedAt maps each detected fault to the first cycle (0-based)
	// at which a primary output exposed it.
	DetectedAt map[fault.Fault]int

	// Stats counts the simulation work performed (event-driven paths
	// only; the full-sweep oracle reports zero stats).
	Stats Stats
}

// Detected returns the number of detected faults.
func (r *Result) Detected() int { return len(r.DetectedAt) }

// Undetected returns the faults the sequence did not detect, in fault
// order.
func (r *Result) Undetected() []fault.Fault {
	var out []fault.Fault
	for _, f := range r.Faults {
		if _, ok := r.DetectedAt[f]; !ok {
			out = append(out, f)
		}
	}
	return out
}

// Coverage returns detected / total as a percentage.
func (r *Result) Coverage() float64 {
	if len(r.Faults) == 0 {
		return 100
	}
	return 100 * float64(len(r.DetectedAt)) / float64(len(r.Faults))
}

// ParallelThreshold is the fault-list size above which the event-driven
// engine spreads the 63-fault groups across goroutines. Below it the
// goroutine and engine setup overhead dominates, so the groups run on
// the calling goroutine.
const ParallelThreshold = 2 * GroupWidth

// Run fault-simulates the test sequence over the fault list from the
// all-X initial state using the event-driven fault-parallel engine.
// Large fault lists are spread across GOMAXPROCS goroutines (one
// 63-fault word-pair group at a time); DetectedAt is identical to
// RunSequential, the full-sweep oracle, in every case.
func Run(c *netlist.Circuit, faults []fault.Fault, seq sim.Seq) *Result {
	res, _ := RunContext(context.Background(), c, faults, seq)
	return res
}

// RunContext is Run with cooperative cancellation, checked once per
// 128-cycle block. On early stop it returns the partial result (the
// detections of the processed prefix) together with the context error.
func RunContext(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, seq sim.Seq) (*Result, error) {
	s := NewSimulator(c, faults)
	_, err := s.SimulateContext(ctx, seq)
	return s.Result(), err
}

// RunSequential fault-simulates group by group on the calling goroutine
// with the full-sweep PROOFS-style engine: every gate is evaluated on
// every cycle and no fault is ever dropped from the injection tables.
// It is the bit-exact reference implementation the event-driven paths
// must match: the test-only oracle of the differential tests, never a
// production path.
func RunSequential(c *netlist.Circuit, faults []fault.Fault, seq sim.Seq) *Result {
	res := &Result{Circuit: c, Faults: faults, DetectedAt: make(map[fault.Fault]int)}
	eng := newEngine(c)
	for start := 0; start < len(faults); start += GroupWidth {
		end := start + GroupWidth
		if end > len(faults) {
			end = len(faults)
		}
		eng.runGroup(faults[start:end], seq, res)
	}
	return res
}

// engine holds the per-circuit scratch state for full-sweep group
// simulation (the oracle). The injection tables are reused across
// groups; see injection.
type engine struct {
	c     *netlist.Circuit
	order []int
	val   []logic.W
	state []logic.W
	inj   *injection
	buf   []logic.W
}

func newEngine(c *netlist.Circuit) *engine {
	order, _ := c.MustLevels()
	return &engine{
		c:     c,
		order: order,
		val:   make([]logic.W, len(c.Nodes)),
		state: make([]logic.W, len(c.DFFs)),
		inj:   newInjection(len(c.Nodes)),
	}
}

// force applies the injection masks to a word.
func force(w logic.W, ones, zeros uint64) logic.W {
	w.Ones = w.Ones&^zeros | ones
	w.Zeros = w.Zeros&^ones | zeros
	return w
}

func (e *engine) runGroup(group []fault.Fault, seq sim.Seq, res *Result) {
	c := e.c
	e.inj.reset()
	e.inj.build(c, group)
	for i := range e.state {
		e.state[i] = logic.W{} // all X
	}
	remaining := len(group)
	for t, in := range seq {
		if remaining == 0 {
			break
		}
		for i, id := range c.Inputs {
			e.val[id] = force(logic.WAll(in[i]), e.inj.stem1[id], e.inj.stem0[id])
		}
		for i, id := range c.DFFs {
			e.val[id] = force(e.state[i], e.inj.stem1[id], e.inj.stem0[id])
		}
		for _, id := range e.order {
			n := &c.Nodes[id]
			buf := e.buf[:0]
			row := e.inj.branch[id]
			for pin, f := range n.Fanin {
				w := e.val[f]
				if row != nil {
					w = force(w, row[pin].ones, row[pin].zeros)
				}
				buf = append(buf, w)
			}
			e.val[id] = force(logic.EvalW(n.Op, buf), e.inj.stem1[id], e.inj.stem0[id])
			e.buf = buf[:0]
		}
		// Detection: compare every faulty bit against the good bit 0.
		for _, id := range c.Outputs {
			w := e.val[id]
			var diff uint64
			switch w.Get(0) {
			case logic.One:
				diff = w.Zeros
			case logic.Zero:
				diff = w.Ones
			default:
				continue
			}
			diff &^= 1 // never the good machine itself
			for diff != 0 {
				bit := diff & -diff
				diff &^= bit
				k := bits.TrailingZeros64(bit) - 1
				f := group[k]
				if _, seen := res.DetectedAt[f]; !seen {
					res.DetectedAt[f] = t
					remaining--
				}
			}
		}
		for i, id := range c.DFFs {
			w := e.val[c.Nodes[id].Fanin[0]]
			if row := e.inj.branch[id]; row != nil {
				w = force(w, row[0].ones, row[0].zeros)
			}
			e.state[i] = w
		}
	}
}
