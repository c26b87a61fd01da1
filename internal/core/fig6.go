package core

import (
	"context"
	"math"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/retime"
	"repro/internal/sim"
)

// Fig6Result is the outcome of the paper's Fig. 6 technique on an
// implemented (typically performance-retimed, hard-to-test) circuit:
// retime it for testability by minimizing registers, run ATPG on the
// easy version, and map the test set back with the prefix.
type Fig6Result struct {
	// Pair.Original is the testability-retimed (register-minimized)
	// circuit the ATPG ran on; Pair.Retimed is the implemented circuit
	// the derived test set targets.
	Pair *RetimedPair
	// EasyATPG is the ATPG run on the easy circuit.
	EasyATPG *atpg.Result
	// Derived is EasyATPG's test set with the Theorem 4 prefix.
	Derived sim.Seq
	// ImplFaults / ImplResult report the derived set fault-simulated on
	// the implemented circuit (its own collapsed fault list).
	ImplFaults []fault.Fault
	ImplResult *fsim.Result
}

// Fig6Flow runs the retime-for-testability technique. The register
// minimization is unconstrained (the easy circuit need not meet the
// implementation's clock period; it exists only for test generation):
// the exact min-cost-flow solver where the graph permits, the greedy
// hill climber beyond that.
func Fig6Flow(impl *netlist.Circuit, opt atpg.Options) (*Fig6Result, error) {
	return Fig6FlowContext(context.Background(), impl, opt)
}

// Fig6FlowContext is Fig6Flow with cooperative cancellation threaded
// through every stage (register minimization, ATPG, fault simulation),
// so a cancelled flow stops within one stage's check interval.
func Fig6FlowContext(ctx context.Context, impl *netlist.Circuit, opt atpg.Options) (*Fig6Result, error) {
	g := retime.FromCircuit(impl)
	rmin, _, err := g.MinRegistersContext(ctx)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		rmin = g.ReduceRegisters(g.Zero(), math.MaxInt)
	}
	easyGraph, err := g.Retime(rmin)
	if err != nil {
		return nil, err
	}
	// The pair's transformation direction is easy -> impl, so the pair
	// is built over the easy graph with the inverse retiming.
	pair, err := BuildPair(easyGraph, retime.Invert(rmin), impl.Name+".min", impl.Name)
	if err != nil {
		return nil, err
	}

	easyFaults, _ := fault.Collapse(pair.Original)
	// With a checkpoint path configured (the job service wires one in),
	// the expensive ATPG leg resumes from a crashed earlier attempt's
	// checkpoint. The easy circuit and its fault list are recomputed
	// deterministically above, so the checkpoint's identity hashes
	// validate across process restarts.
	res, err := atpg.RunContext(ctx, pair.Original, easyFaults, opt)
	if err != nil {
		return nil, err
	}
	derived := pair.DeriveTestSet(res.TestSet, FillZeros, 0)

	implFaults, _ := fault.Collapse(pair.Retimed)
	implRes, err := fsim.RunContext(ctx, pair.Retimed, implFaults, derived)
	if err != nil {
		return nil, err
	}
	return &Fig6Result{
		Pair:       pair,
		EasyATPG:   res,
		Derived:    derived,
		ImplFaults: implFaults,
		ImplResult: implRes,
	}, nil
}

// ImplCoverage returns the fault coverage the derived test set achieves
// on the implemented circuit.
func (r *Fig6Result) ImplCoverage() float64 { return r.ImplResult.Coverage() }
