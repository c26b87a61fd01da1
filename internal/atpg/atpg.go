// Package atpg implements a structural sequential automatic test
// pattern generator in the HITEC tradition: PODEM over an iterative
// time-frame expansion with unknown initial state, a 9-valued composite
// good/faulty algebra, iterative deepening on the frame count,
// backtrack limits, a single-frame redundancy identifier, and fault
// dropping through the fault simulator.
//
// The paper's Table II observable -- structural sequential ATPG effort
// exploding on retimed circuits while fault coverage and efficiency
// drop -- is produced by exactly this class of generator, so effort
// here is metered deterministically (gate evaluations and backtracks)
// in addition to wall-clock time.
package atpg

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iofault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Options tunes the generator.
type Options struct {
	// MaxFrames bounds the iterative deepening on time frames.
	MaxFrames int
	// MaxBacktracks bounds PODEM backtracks per fault and frame count.
	MaxBacktracks int
	// MaxEvalsPerFault bounds gate evaluations spent on one fault
	// across all frame counts (0 = unlimited).
	MaxEvalsPerFault int64
	// MaxEvalsTotal bounds the whole deterministic phase; once the
	// budget is spent the remaining faults are reported as aborted,
	// mirroring the paper's wall-clock cap on HITEC runs (s510.jo.sr.re
	// hit its one-million-second limit). 0 = unlimited.
	MaxEvalsTotal int64
	// GuidedBacktrace enables SCOAP-style controllability guidance in
	// the backtrace (the ablation benchmark flips this).
	GuidedBacktrace bool
	// FillValue replaces unassigned primary inputs in emitted tests;
	// logic.X means "fill with zeros" is replaced by random-free zero
	// fill. Tests remain valid for any fill by construction.
	FillValue logic.V
	// RandomPhase runs a random-sequence fault-simulation pass before
	// deterministic generation (length RandomLength, RandomCount
	// sequences) to drop the easy faults cheaply.
	RandomPhase  bool
	RandomLength int
	RandomCount  int
	RandomSeed   int64
	// IdentifyRedundant runs the single-frame free-state untestability
	// check to classify faults as redundant.
	IdentifyRedundant bool
	// Workers selects the fault-sharded parallel engine for the
	// deterministic phase: 0 or 1 runs single-threaded, n > 1 spreads
	// speculative PODEM generation across up to n shard workers (see
	// parallel.go). The result is byte-identical at every worker count
	// -- shards only pre-compute what the deterministic merge would have
	// computed anyway -- so Workers is purely a wall-clock knob.
	Workers int
	// Checkpoint wires periodic durable checkpoints and resume into the
	// run (see CheckpointConfig). Like Workers it is result-neutral: a
	// checkpointed, killed and resumed run produces a Result
	// byte-identical to an uninterrupted one (modulo Effort.Time and
	// Parallel stats), at any worker count on either side.
	Checkpoint CheckpointConfig
	// SyncSeed prepends a precomputed structural synchronizing sequence
	// (found by holding simple constant vectors, e.g. an asserted reset
	// line) to every deterministic search, so state justification works
	// from a known state -- the way production generators exploit reset
	// lines. Tests remain valid for unknown initial state; the seed is
	// just a fixed stimulus prefix.
	SyncSeed bool
}

// DefaultOptions returns the settings used by the experiment harness.
func DefaultOptions() Options {
	return Options{
		MaxFrames:         10,
		MaxBacktracks:     200,
		MaxEvalsPerFault:  2_000_000,
		MaxEvalsTotal:     300_000_000,
		GuidedBacktrace:   true,
		FillValue:         logic.Zero,
		RandomPhase:       true,
		RandomLength:      128,
		RandomCount:       64,
		RandomSeed:        1,
		IdentifyRedundant: true,
		SyncSeed:          true,
	}
}

// FaultStatus classifies the outcome for one fault.
type FaultStatus uint8

// Fault outcomes.
const (
	StatusAborted   FaultStatus = iota // backtrack/effort limit hit
	StatusDetected                     // a test was generated or the fault was dropped
	StatusRedundant                    // proven untestable
)

// String names the status.
func (s FaultStatus) String() string {
	switch s {
	case StatusDetected:
		return "detected"
	case StatusRedundant:
		return "redundant"
	}
	return "aborted"
}

// Effort is the deterministic cost metering of a run.
type Effort struct {
	Evals      int64 // composite gate evaluations
	Backtracks int64
	Time       time.Duration
}

// Result summarizes an ATPG run over a fault list.
type Result struct {
	Circuit *netlist.Circuit
	Faults  []fault.Fault
	Status  map[fault.Fault]FaultStatus
	// Tests holds the generated sequences in generation order; TestSet
	// is their concatenation, the deliverable test set.
	Tests   []sim.Seq
	TestSet sim.Seq
	Effort  Effort
	// FsimStats reports the measured fault-simulation work (event-driven
	// evaluations, drops, repacks) behind the dropping phases. Effort
	// keeps the historical full-sweep estimate so budgets stay stable.
	FsimStats fsim.Stats
	// Parallel reports the speculation bookkeeping of the fault-sharded
	// engine; nil when the run was single-threaded (Workers <= 1), so a
	// Workers=1 result compares deep-equal to Run's.
	Parallel *ParallelStats
}

// Counts returns (detected, redundant, aborted).
func (r *Result) Counts() (det, red, ab int) {
	for _, f := range r.Faults {
		switch r.Status[f] {
		case StatusDetected:
			det++
		case StatusRedundant:
			red++
		default:
			ab++
		}
	}
	return
}

// FaultCoverage returns detected/total in percent.
func (r *Result) FaultCoverage() float64 {
	if len(r.Faults) == 0 {
		return 100
	}
	det, _, _ := r.Counts()
	return 100 * float64(det) / float64(len(r.Faults))
}

// FaultEfficiency returns (detected+redundant)/total in percent.
func (r *Result) FaultEfficiency() float64 {
	if len(r.Faults) == 0 {
		return 100
	}
	det, red, _ := r.Counts()
	return 100 * float64(det+red) / float64(len(r.Faults))
}

// Run generates tests for the fault list.
func Run(c *netlist.Circuit, faults []fault.Fault, opt Options) *Result {
	res, _ := RunContext(context.Background(), c, faults, opt)
	return res
}

// RunContext is Run with cooperative cancellation. The context is
// checked before every test-generation attempt (random-phase sequence or
// deterministic target fault) and periodically inside the PODEM search,
// so a cancelled run stops within one check interval. On early stop it
// returns the partial result -- faults not yet decided count as aborted
// -- together with the context error. With a never-cancelled context the
// result is byte-identical to Run.
func RunContext(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, opt Options) (*Result, error) {
	return runMerge(ctx, c, faults, opt, nil)
}

// runMerge runs the deterministic merge loop behind RunContext and
// RunContextFanOut under the one resume policy: with a
// Checkpoint.Path and no ResumeFrom installed, a usable file at Path
// is resumed from (tryResume). The identity hashes cover the run's
// inputs, not the engine, so a file that validates can still diverge
// during replay -- one written by an earlier build, say: it is then
// discarded, reported through OnResume, and the run redone clean once.
// An explicitly installed ResumeFrom still fails on a mismatch.
func runMerge(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, opt Options, fanOut FanOut) (*Result, error) {
	resumed, _ := tryResume(&opt, c, faults)
	res, err := merge(ctx, c, faults, opt, fanOut)
	if resumed && errors.Is(err, ErrCheckpointMismatch) {
		iofault.Discard(opt.Checkpoint.Path)
		if opt.Checkpoint.OnResume != nil {
			opt.Checkpoint.OnResume(false, err)
		}
		opt.Checkpoint.ResumeFrom = nil
		return merge(ctx, c, faults, opt, fanOut)
	}
	return res, err
}

// merge is the deterministic merge loop: a non-nil fanOut supplies
// precomputed per-fault PODEM candidates (distributed shard results)
// for the survivors in place of inline generation or local speculation.
func merge(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, opt Options, fanOut FanOut) (*Result, error) {
	start := time.Now()
	res := &Result{
		Circuit: c,
		Faults:  faults,
		Status:  make(map[fault.Fault]FaultStatus, len(faults)),
	}
	// One persistent simulator grades every test of the run, so detected
	// faults are never packed or simulated again.
	s := fsim.NewSimulator(c, faults)
	ckw := newCkWriter(c, faults, opt)
	var spec *speculator
	finish := func(err error) (*Result, error) {
		// Flush the tail of the decision log on every exit -- completion,
		// cancellation (SIGINT), grade failure -- except when the error is
		// the checkpoint itself being unusable: overwriting some other
		// run's file from a half-replayed state would destroy evidence.
		if !isCheckpointErr(err) {
			ckw.final()
		}
		if spec != nil {
			spec.close()
			res.Parallel = spec.stats()
		}
		res.FsimStats = s.Stats()
		res.Effort.Time = time.Since(start)
		return res, err
	}

	resume := opt.Checkpoint.ResumeFrom
	if resume != nil {
		if err := resume.Validate(c, faults, opt); err != nil {
			return finish(err)
		}
	}

	// The random phase is a pure function of Options, so a resumed run
	// replays it in full instead of persisting PRNG state; the simulator
	// walks the identical sequence of operations either way.
	randomDone, err := randomPhase(ctx, s, res, opt)
	if err != nil {
		return finish(err)
	}
	ckw.setRandomDone(randomDone)

	eng := newEngine(c, opt)
	eng.ctx = ctx
	remaining := s.Remaining()

	// Resume: replay the checkpoint's decision log against the fresh
	// simulator before any new generation. Logged outcomes are applied
	// without re-running PODEM; logged tests are re-graded so the
	// simulator, the Effort charges and the survivor list advance
	// through the exact operation sequence of the original run. The
	// fan-out or the speculator starts only after the replay, over the
	// post-replay survivors.
	if resume != nil {
		for _, d := range resume.Decided {
			if err := ctx.Err(); err != nil {
				return finish(err)
			}
			if len(remaining) == 0 || remaining[0] != d.Fault {
				return finish(fmt.Errorf("%w: decision log diverges from the live fault list at %v",
					ErrCheckpointMismatch, d.Fault))
			}
			remaining = remaining[1:]
			s.Drop(d.Fault)
			res.Effort.Evals += d.Evals
			res.Effort.Backtracks += d.Backtracks
			res.Status[d.Fault] = d.Status
			ckw.replayed(d)
			if d.Status != StatusDetected {
				continue
			}
			res.addTest(d.Seq)
			if s.LiveCount() > 0 {
				if _, err := gradeTest(ctx, s, res, d.Seq); err != nil {
					return finish(err)
				}
				remaining = s.Remaining()
			}
		}
	}

	// next yields each target's candidate: from the fan-out's lookup,
	// from the speculator, or generated inline -- the same pure function
	// of circuit, options and fault whichever supplies it.
	next := eng.candidate
	switch {
	case fanOut != nil && len(remaining) > 0:
		lookup, err := fanOut(ctx, remaining)
		if err != nil {
			return finish(err)
		}
		next = func(f fault.Fault) genCandidate {
			if d, ok := lookup(f); ok {
				return genCandidate{seq: d.Seq, status: d.Status, evals: d.Evals, backtracks: d.Backtracks}
			}
			return eng.candidate(f)
		}
	case fanOut == nil && opt.Workers > 1:
		spec = newSpeculator(ctx, c, opt, remaining, eng)
		next = spec.next
	}
	for len(remaining) > 0 {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		f := remaining[0]
		remaining = remaining[1:]
		// The target leaves the grading set whatever generate decides:
		// detected faults get an explicit test, aborted and redundant
		// ones must never be simulated again.
		s.Drop(f)
		if opt.MaxEvalsTotal > 0 && res.Effort.Evals >= opt.MaxEvalsTotal {
			res.Status[f] = StatusAborted
			ckw.decided(DecidedFault{Fault: f, Status: StatusAborted})
			continue
		}
		cand := next(f)
		res.Effort.Evals += cand.evals
		res.Effort.Backtracks += cand.backtracks
		res.Status[f] = cand.status
		if cand.cancelled {
			// A cancelled search has nondeterministic partial charges;
			// it never enters the decision log, so a resumed run redoes
			// this fault from scratch, deterministically.
			return finish(ctx.Err())
		}
		if cand.status != StatusDetected {
			ckw.decided(DecidedFault{Fault: f, Status: cand.status,
				Evals: cand.evals, Backtracks: cand.backtracks})
			continue
		}
		res.addTest(cand.seq)
		// Fault dropping: simulate the new test over the survivors.
		if s.LiveCount() > 0 {
			newly, err := gradeTest(ctx, s, res, cand.seq)
			if err != nil {
				// The grade was cut off mid-sequence; like a cancelled
				// search this iteration is not logged and is redone in
				// full on resume.
				return finish(err)
			}
			if spec != nil {
				spec.retired(newly)
			}
			remaining = s.Remaining()
		}
		ckw.decided(DecidedFault{Fault: f, Status: StatusDetected,
			Evals: cand.evals, Backtracks: cand.backtracks, Seq: cand.seq})
	}
	return finish(nil)
}

// addTest appends a generated or detecting random sequence to the
// result's test list and test set.
func (r *Result) addTest(seq sim.Seq) {
	r.Tests = append(r.Tests, seq)
	r.TestSet = append(r.TestSet, seq...)
}

// gradeTest is the one grade-and-charge step of the generator: it
// simulates seq from the all-X state over the survivors of s, retiring
// the detected faults, marks them detected in res.Status and charges
// res.Effort. Detections are recorded even on a cancelled grade (the
// processed prefix), which keeps Status consistent with the simulator's
// own bookkeeping. The charge is the historical full-sweep estimate
// (cycles x nodes x word groups over the survivors), not the much
// smaller measured event-driven work, so MaxEvalsTotal budgets keep
// their pre-incremental meaning; FsimStats carries the real counts. It
// returns the faults seq newly detected.
func gradeTest(ctx context.Context, s *fsim.Simulator, res *Result, seq sim.Seq) ([]fault.Fault, error) {
	live := s.LiveCount()
	s.Reset()
	newly, err := s.SimulateContext(ctx, seq)
	res.Effort.Evals += int64(len(seq)) * int64(len(res.Circuit.Nodes)) * int64((live+fsim.GroupWidth-1)/fsim.GroupWidth)
	for _, f := range newly {
		res.Status[f] = StatusDetected
	}
	return newly, err
}

// randomPhase grades the random-phase sequences over s in order until
// every fault is detected, keeping each sequence that detects something
// as a test of res, and returns how many it graded in full. merge is
// its one caller, so a run -- local or fanned out -- grades the random
// sequences once.
func randomPhase(ctx context.Context, s *fsim.Simulator, res *Result, opt Options) (int, error) {
	if !opt.RandomPhase || opt.RandomCount <= 0 || opt.RandomLength <= 0 {
		return 0, nil
	}
	done := 0
	for _, seq := range randomSequences(len(res.Circuit.Inputs), opt) {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		if s.LiveCount() == 0 {
			break
		}
		newly, err := gradeTest(ctx, s, res, seq)
		if len(newly) > 0 {
			res.addTest(seq)
		}
		if err != nil {
			return done, err
		}
		done++
	}
	return done, nil
}

// randomSequences builds the deterministic random-phase stimuli. Each
// sequence draws every input from its own random bias in {10%, 50%,
// 90%}; weighted patterns exercise control-like inputs (reset lines,
// enables) far better than uniform ones, which would keep resetting the
// machine under test.
func randomSequences(inputs int, opt Options) []sim.Seq {
	rng := newSplitMix(uint64(opt.RandomSeed))
	seqs := make([]sim.Seq, opt.RandomCount)
	for i := range seqs {
		// Per-input probability threshold: ~10%, 50% or 90%.
		thresh := make([]uint64, inputs)
		for j := range thresh {
			switch rng.next() % 3 {
			case 0:
				thresh[j] = ^uint64(0) / 10 // ~10% ones
			case 1:
				thresh[j] = ^uint64(0) / 2 // ~50% ones
			default:
				thresh[j] = ^uint64(0) - ^uint64(0)/10 // ~90% ones
			}
		}
		seq := make(sim.Seq, opt.RandomLength)
		for t := range seq {
			v := make(sim.Vec, inputs)
			for j := range v {
				v[j] = logic.FromBool(rng.next() < thresh[j])
			}
			seq[t] = v
		}
		seqs[i] = seq
	}
	return seqs
}

// splitMix is a tiny deterministic PRNG so the package does not depend
// on math/rand ordering guarantees for reproducibility.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed + 0x9e3779b97f4a7c15} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
