package atpg

import (
	"context"
	"fmt"

	"repro/internal/failpoint"
	"repro/internal/fault"
	"repro/internal/netlist"
)

// Distributed sharding support.
//
// Per-fault PODEM generation is a pure function of (circuit, options,
// fault): the engine fully resets its search state between targets (the
// invariant the fault-sharded speculator of parallel.go already leans
// on). A remote backend can therefore precompute the candidate decision
// for every fault of a shard -- status, test sequence, metered effort --
// and a local merge driver can replay the exact serial loop, pulling
// each target's candidate from the shard results instead of generating
// it inline. Because the candidates equal what the serial engine would
// have produced, the merged Result is byte-identical to Run no matter
// how the fault list was sharded, which backends computed which shard,
// or how often a shard was retried or migrated mid-flight.
//
// GenerateShard is the backend side: a plain fault-by-fault generation
// loop over one shard, with the checkpoint machinery giving it
// durable, migratable partial progress (the decision log is positional
// over the shard's fault list and bound to it by identity hashes).
// RunContextFanOut is the driver side: RunContext handing the faults
// left after the random phase and any checkpoint replay to a FanOut
// hook, whose lookup then replaces inline generation.

// FailpointShardFault is injected before each fresh per-fault
// generation in GenerateShard; chaos tests arm it to kill a backend
// mid-shard (error action) or slow it down (sleep action).
const FailpointShardFault = "atpg.shard.fault"

// GenerateShard generates a candidate decision for every fault in the
// shard, in order, with no grading or fault dropping between targets --
// each entry is exactly what the serial Run loop would compute when it
// targets that fault. opt.Checkpoint wires durable partial progress the
// same way it does for RunContext: ResumeFrom replays already-decided
// entries without re-running PODEM, OnWrite observes every emitted
// partial checkpoint, and the log is flushed on any exit. On
// cancellation the decided prefix is returned along with the context
// error.
func GenerateShard(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, opt Options) ([]DecidedFault, error) {
	ckw := newCkWriter(c, faults, opt)
	decided := make([]DecidedFault, 0, len(faults))
	if resume := opt.Checkpoint.ResumeFrom; resume != nil {
		if err := resume.Validate(c, faults, opt); err != nil {
			return nil, err
		}
		for i, d := range resume.Decided {
			if faults[i] != d.Fault {
				return nil, fmt.Errorf("%w: shard decision log diverges from the fault list at %v",
					ErrCheckpointMismatch, d.Fault)
			}
			decided = append(decided, d)
			ckw.replayed(d)
		}
	}
	eng := newEngine(c, opt)
	eng.ctx = ctx
	for _, f := range faults[len(decided):] {
		if err := ctx.Err(); err != nil {
			ckw.final()
			return decided, err
		}
		if err := failpoint.Inject(FailpointShardFault); err != nil {
			ckw.final()
			return decided, err
		}
		seq, status := eng.generate(f)
		if eng.cancelled {
			// A cancelled search has nondeterministic partial charges; it
			// never enters the log, so a resumed shard redoes this fault
			// from scratch, deterministically.
			ckw.final()
			err := ctx.Err()
			if err == nil {
				err = context.Canceled
			}
			return decided, err
		}
		d := DecidedFault{Fault: f, Status: status, Evals: eng.evals, Backtracks: eng.backtracks}
		if status == StatusDetected {
			d.Seq = seq
		}
		decided = append(decided, d)
		ckw.decided(d)
	}
	ckw.final()
	return decided, nil
}

// ShardCheckpoint packages a shard decision log as a Checkpoint bound
// to (circuit, shard fault list, options) by the identity hashes --
// the wire and migration format of distributed shard execution. The
// log is copied, not aliased.
func ShardCheckpoint(c *netlist.Circuit, faults []fault.Fault, opt Options, decided []DecidedFault) *Checkpoint {
	ck := newCheckpoint(c, faults, opt)
	ck.Decided = append([]DecidedFault(nil), decided...)
	return ck
}

// CandidateLookup supplies precomputed PODEM candidates to the merge
// driver. It is consulted once per target fault; a miss falls back to
// inline generation on the driver's own engine, which preserves
// byte-identity (the looked-up candidate and the inline one are the
// same pure function of circuit, options and fault).
type CandidateLookup func(fault.Fault) (DecidedFault, bool)

// FanOut is the merge loop's one fan-out seam. RunContextFanOut calls
// it once, after the random phase and any checkpoint replay, with the
// faults still undecided in fault-list order -- the deterministic
// phase's targets -- and takes their candidates from the returned
// lookup. It is not called when nothing survives; an error ends the
// run like any other, with the partial result.
type FanOut func(ctx context.Context, survivors []fault.Fault) (CandidateLookup, error)

// RunContextFanOut is RunContext with an external candidate source:
// fanOut precomputes the survivors' PODEM outcomes (distributed
// shards), and the merge loop takes each target's outcome from the
// lookup it returns instead of generating it inline, while the random
// phase, grading, fault dropping and effort accounting all run
// locally, byte-identical to Run. Candidates supersede Options.Workers
// (no local speculators are started), so Result.Parallel is nil, as on
// a serial run.
func RunContextFanOut(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, opt Options, fanOut FanOut) (*Result, error) {
	return runMerge(ctx, c, faults, opt, fanOut)
}
