package service

import (
	"context"
	"fmt"
	"math"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/failpoint"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/retime"
	"repro/internal/sim"
)

// stage runs one named pipeline step under the per-stage latency
// histogram, checking the deadline first so an expired or cancelled job
// stops at the next boundary instead of starting more work. Every
// library call a stage makes is context-aware, so the stage runs f
// inline on the worker's own goroutine: a deadline or Cancel unwinds
// *through* f within one cooperative check interval, and no abandoned
// computation is left burning CPU behind the pool. The stage.<name>
// failpoint lets chaos tests fail, delay or panic a specific stage.
// Entering and leaving a stage heartbeats the job's stuck-progress
// watchdog, so a healthy multi-stage pipeline never trips it as long
// as each single stage fits the window.
func (s *Service) stage(ctx context.Context, j *Job, name string, f func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := failpoint.Inject("stage." + name); err != nil {
		return err
	}
	j.touchProgress()
	defer j.touchProgress()
	return s.reg.Observe("stage."+name+".latency", f)
}

// execute runs the job's request. With caching on, executeCached looks
// the request up first and only a miss computes; with caching off every
// attempt computes. The job ID names the durable checkpoint file
// ATPG-bearing kinds resume from after a crash.
func (s *Service) execute(ctx context.Context, j *Job) (*Result, error) {
	if s.cache == nil {
		return s.compute(ctx, j)
	}
	return s.executeCached(ctx, j)
}

// compute parses the bench text and runs the kind's pipeline, one
// instrumented stage at a time, no cache consulted. Every stage is a
// plain library call with deterministic options, so the result matches
// the equivalent direct call exactly.
func (s *Service) compute(ctx context.Context, j *Job) (*Result, error) {
	var c *netlist.Circuit
	if err := s.stage(ctx, j, "parse", func() error {
		var err error
		c, err = netlist.ParseBenchString("job", j.req.Bench)
		return err
	}); err != nil {
		return nil, err
	}
	switch j.req.Kind {
	case KindRetime:
		return s.execRetime(ctx, j, c)
	case KindATPG:
		return s.execATPG(ctx, j, c)
	case KindFaultSim:
		return s.execFaultSim(ctx, j, c)
	case KindDeriveTests:
		return s.execDerive(ctx, j, c)
	}
	return nil, fmt.Errorf("service: unknown job kind %q", j.req.Kind)
}

func (s *Service) execRetime(ctx context.Context, j *Job, c *netlist.Circuit) (*Result, error) {
	out := &RetimeResult{}
	err := s.stage(ctx, j, "retime", func() error {
		g := retime.FromCircuit(c)
		switch j.req.Mode {
		case "registers":
			r, _, err := g.MinRegistersContext(ctx)
			if err != nil {
				if ctx.Err() != nil {
					return err
				}
				r = g.ReduceRegisters(g.Zero(), math.MaxInt)
			}
			pair, err := core.BuildPair(g, r, c.Name, c.Name+".min")
			if err != nil {
				return err
			}
			out.RegistersBefore = g.Registers()
			out.RegistersAfter = g.RegistersAfter(r)
			out.Bench = netlist.BenchString(pair.Retimed)
			out.PrefixTests = pair.PrefixLengthTests()
			out.PrefixSync = pair.PrefixLengthFaultFree()
		default: // "period"
			pair, before, after, err := core.MinPeriodPairContext(ctx, c)
			if err != nil {
				return err
			}
			out.PeriodBefore = before
			out.PeriodAfter = after
			out.Bench = netlist.BenchString(pair.Retimed)
			out.PrefixTests = pair.PrefixLengthTests()
			out.PrefixSync = pair.PrefixLengthFaultFree()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Retime: out}, nil
}

// distributed reports whether a request's ATPG leg runs through the
// backend dispatcher: the job must ask (ATPGSpec.Backends > 0) and the
// service must have backends configured. Result-neutral either way.
func (s *Service) distributed(req *Request) bool {
	return s.disp != nil && req.ATPG != nil && req.ATPG.Backends > 0
}

// runATPG picks the execution engine for one ATPG run: the fan-out
// dispatcher when the request opts in and backends exist, the local
// library engine otherwise. Byte-identical output either way.
func (s *Service) runATPG(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, opt atpg.Options, req *Request) (*atpg.Result, error) {
	if s.distributed(req) {
		return s.disp.RunShards(ctx, c, faults, opt, req.ATPG.Backends)
	}
	return atpg.RunContext(ctx, c, faults, opt)
}

func (s *Service) execATPG(ctx context.Context, j *Job, c *netlist.Circuit) (*Result, error) {
	var faults []fault.Fault
	if err := s.stage(ctx, j, "collapse", func() error {
		faults, _ = fault.Collapse(c)
		return nil
	}); err != nil {
		return nil, err
	}
	// The run resumes from the job's durable checkpoint when a crashed
	// earlier attempt left a usable one (atpg's resume policy).
	opt := j.req.ATPG.Options()
	opt.Checkpoint = s.checkpointConfig(j)
	var res *atpg.Result
	if err := s.stage(ctx, j, "atpg", func() error {
		var err error
		res, err = s.runATPG(ctx, c, faults, opt, &j.req)
		return err
	}); err != nil {
		return nil, err
	}
	s.recordFsim(res.FsimStats)
	s.recordParallel(res.Parallel)
	det, red, ab := res.Counts()
	out := &ATPGResult{
		Faults:          len(faults),
		Detected:        det,
		Redundant:       red,
		Aborted:         ab,
		FaultCoverage:   res.FaultCoverage(),
		FaultEfficiency: res.FaultEfficiency(),
		Vectors:         vecStrings(res.TestSet),
		Sequences:       len(res.Tests),
		Evals:           res.Effort.Evals,
	}
	return &Result{ATPG: out}, nil
}

func (s *Service) execFaultSim(ctx context.Context, j *Job, c *netlist.Circuit) (*Result, error) {
	seq := sim.ParseSeq(j.req.Tests)
	for _, v := range seq {
		if len(v) != len(c.Inputs) {
			return nil, fmt.Errorf("service: vector %q has %d bits, circuit has %d inputs",
				sim.VecString(v), len(v), len(c.Inputs))
		}
	}
	var faults []fault.Fault
	if err := s.stage(ctx, j, "collapse", func() error {
		faults, _ = fault.Collapse(c)
		return nil
	}); err != nil {
		return nil, err
	}
	var res *fsim.Result
	if err := s.stage(ctx, j, "fsim", func() error {
		var err error
		res, err = fsim.RunContext(ctx, c, faults, seq)
		return err
	}); err != nil {
		return nil, err
	}
	s.recordFsim(res.Stats)
	out := &FaultSimResult{
		Faults:   len(faults),
		Detected: res.Detected(),
		Coverage: res.Coverage(),
		Vectors:  len(seq),
	}
	for _, f := range res.Undetected() {
		out.Undetected = append(out.Undetected, f.Name(c))
	}
	return &Result{FaultSim: out}, nil
}

func (s *Service) execDerive(ctx context.Context, j *Job, c *netlist.Circuit) (*Result, error) {
	// Fig6Flow bundles retime+ATPG+derive+fsim; run it as one "fig6"
	// stage and re-check the deadline before the final bookkeeping.
	fill, err := parseFill(j.req.Fill)
	if err != nil {
		return nil, err
	}
	// The expensive ATPG leg inside the flow checkpoints to the job's
	// file; the flow itself resumes it (only there are the easy circuit
	// and its fault list known), reporting through the config callbacks.
	opt := j.req.ATPG.Options()
	opt.Checkpoint = s.checkpointConfig(j)
	var flow *core.Fig6Result
	if err := s.stage(ctx, j, "fig6", func() error {
		var err error
		flow, err = core.Fig6FlowContext(ctx, c, opt)
		return err
	}); err != nil {
		return nil, err
	}
	derived := flow.Derived
	if fill != core.FillZeros {
		// Fig6Flow derives with zero fill; rebuild the prefix with the
		// requested fill (Theorem 4 permits any) and re-simulate.
		derived = flow.Pair.DeriveTestSet(flow.EasyATPG.TestSet, fill, j.req.Seed)
		if err := s.stage(ctx, j, "fsim", func() error {
			var err error
			flow.ImplResult, err = fsim.RunContext(ctx, flow.Pair.Retimed, flow.ImplFaults, derived)
			return err
		}); err != nil {
			return nil, err
		}
	}
	s.recordFsim(flow.ImplResult.Stats)
	out := &DeriveResult{
		EasyDFFs:     len(flow.Pair.Original.DFFs),
		ImplDFFs:     len(flow.Pair.Retimed.DFFs),
		Prefix:       flow.Pair.PrefixLengthTests(),
		EasyCoverage: flow.EasyATPG.FaultCoverage(),
		Derived:      vecStrings(derived),
		ImplFaults:   len(flow.ImplFaults),
		ImplDetected: flow.ImplResult.Detected(),
		ImplCoverage: flow.ImplResult.Coverage(),
	}
	return &Result{Derive: out}, nil
}

// recordFsim accumulates fault-simulation work counters into the
// service registry so /metrics exposes how much simulation the engine
// actually performed (event-driven evaluations, not the full-sweep
// effort estimate) and how hard fault dropping and repacking worked.
func (s *Service) recordFsim(st fsim.Stats) {
	s.reg.Counter("fsim.evals").Add(st.Evals)
	s.reg.Counter("fsim.cycles").Add(st.Cycles)
	s.reg.Counter("fsim.drops").Add(st.Drops)
	s.reg.Counter("fsim.repacks").Add(st.Repacks)
	s.reg.Gauge("fsim.events_per_cycle").Set(int64(st.EventsPerCycle()))
}

// recordParallel folds the fault-sharded ATPG counters into the
// registry; nil (a serial run) records nothing.
func (s *Service) recordParallel(ps *atpg.ParallelStats) {
	if ps == nil {
		return
	}
	s.reg.Counter("atpg.parallel.runs").Add(1)
	s.reg.Counter("atpg.parallel.speculated").Add(ps.Speculated)
	s.reg.Counter("atpg.parallel.used").Add(ps.Used)
	s.reg.Counter("atpg.parallel.wasted").Add(ps.Wasted)
	s.reg.Counter("atpg.parallel.fortuitous").Add(ps.Fortuitous)
	s.reg.Counter("atpg.parallel.driver_generated").Add(ps.DriverGenerated)
	s.reg.Gauge("atpg.parallel.workers").Set(int64(ps.Workers))
}

func vecStrings(seq sim.Seq) []string {
	out := make([]string, len(seq))
	for i, v := range seq {
		out[i] = sim.VecString(v)
	}
	return out
}
