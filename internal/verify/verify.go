// Package verify checks behavioural equivalence of sequential circuits,
// the correctness criterion behind every retiming in this library: a
// circuit and its retimed version must produce identical outputs once
// both machines have flushed their lag window.
//
// Two engines are provided. Exact builds both state transition graphs
// and decides N-time-equivalence by partition refinement -- complete,
// but exponential in flip-flop count, so it is guarded to small
// machines. Bounded drives both circuits with shared stimuli under
// 3-valued simulation from the all-X state and reports any
// contradiction between known output values after a warm-up window --
// sound for rejection (a reported mismatch is a real difference up to
// alignment) and probabilistic for acceptance, in the spirit of
// simulation-based sequential equivalence checking.
package verify

import (
	"fmt"
	"math/rand"
	"repro/internal/fsim"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/stg"
)

// Result reports an equivalence check.
type Result struct {
	Equivalent bool
	// N is the time-equivalence bound established by the exact engine
	// (0 for space-equivalent machines).
	N int
	// Counterexample, for bounded rejections: the stimulus and the
	// cycle at which outputs contradicted.
	Counterexample sim.Seq
	FailCycle      int
	// Method names the engine that produced the verdict.
	Method string
}

// Exact decides N-time-equivalence of the two circuits by exhaustive
// STG analysis, searching N up to maxN. The circuits must have the same
// input and output widths.
func Exact(a, b *netlist.Circuit, maxN int) (*Result, error) {
	if len(a.Inputs) != len(b.Inputs) || len(a.Outputs) != len(b.Outputs) {
		return nil, fmt.Errorf("verify: interface mismatch: %dx%d vs %dx%d inputs/outputs",
			len(a.Inputs), len(a.Outputs), len(b.Inputs), len(b.Outputs))
	}
	ma, err := stg.Extract(a, nil)
	if err != nil {
		return nil, err
	}
	mb, err := stg.Extract(b, nil)
	if err != nil {
		return nil, err
	}
	n, ok, err := stg.TimeEquivalent(ma, mb, maxN)
	if err != nil {
		return nil, err
	}
	return &Result{Equivalent: ok, N: n, Method: "exact"}, nil
}

// BoundedOptions tunes the simulation-based engine.
type BoundedOptions struct {
	// Warmup is the number of leading cycles whose outputs are ignored
	// (the retiming lag window); pass at least max(F, B) plus the
	// deeper circuit's register count to be safe.
	Warmup int
	// Cycles is the number of compared cycles per trial.
	Cycles int
	// Trials is the number of independent random stimuli.
	Trials int
	// Seed makes the stimuli reproducible.
	Seed int64
}

// DefaultBoundedOptions returns a configuration sized to the circuits.
func DefaultBoundedOptions(a, b *netlist.Circuit) BoundedOptions {
	warm := 4 + len(a.DFFs) + len(b.DFFs)
	return BoundedOptions{Warmup: warm, Cycles: 32, Trials: 16, Seed: 1}
}

// Bounded compares the circuits on shared random stimuli. A mismatch
// between two *known* output values after the warm-up window is a
// genuine behavioural difference (3-valued simulation is sound), so
// Equivalent == false verdicts are definite; Equivalent == true means
// no difference was observed within the budget.
func Bounded(a, b *netlist.Circuit, opt BoundedOptions) (*Result, error) {
	if len(a.Inputs) != len(b.Inputs) || len(a.Outputs) != len(b.Outputs) {
		return nil, fmt.Errorf("verify: interface mismatch")
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	sa, sb := fsim.NewMachine(a, nil), fsim.NewMachine(b, nil)
	for trial := 0; trial < opt.Trials; trial++ {
		sa.Reset()
		sb.Reset()
		var stim sim.Seq
		for cycle := 0; cycle < opt.Warmup+opt.Cycles; cycle++ {
			in := make(sim.Vec, len(a.Inputs))
			for j := range in {
				in[j] = logic.FromBool(rng.Intn(2) == 1)
			}
			stim = append(stim, in)
			oa := sa.Step(in)
			ob := sb.Step(in)
			if cycle < opt.Warmup {
				continue
			}
			for k := range oa {
				if oa[k].Known() && ob[k].Known() && oa[k] != ob[k] {
					return &Result{
						Equivalent:     false,
						Counterexample: stim,
						FailCycle:      cycle,
						Method:         "bounded",
					}, nil
				}
			}
		}
	}
	return &Result{Equivalent: true, Method: "bounded"}, nil
}

// Retiming checks that retimed is a behaviourally valid retiming of
// original: exact when both machines are small enough, bounded
// otherwise. lagBound is the maximum atomic-move count of the retiming
// (Moves.MaxForward + Moves.MaxBackward is always safe).
func Retiming(original, retimed *netlist.Circuit, lagBound int) (*Result, error) {
	if len(original.DFFs) <= 10 && len(retimed.DFFs) <= 10 &&
		len(original.Inputs) <= 8 {
		res, err := Exact(original, retimed, lagBound+len(original.DFFs)+len(retimed.DFFs))
		if err == nil {
			return res, nil
		}
		// fall through to bounded on extraction guards
	}
	opt := DefaultBoundedOptions(original, retimed)
	opt.Warmup += lagBound
	return Bounded(original, retimed, opt)
}
