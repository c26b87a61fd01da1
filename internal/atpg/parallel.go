package atpg

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// The fault-sharded parallel engine.
//
// The sequential deterministic phase is a loop: pop the next surviving
// fault, run PODEM on it, grade an accepted test over the survivors,
// refresh the survivor list. Per-fault generation is a pure function of
// (circuit, options, fault) -- the engine fully resets its search state
// between targets -- so the only loop-carried dependency is WHICH faults
// get targeted, and that is decided solely by grading accepted tests.
//
// The speculator exploits this: shard workers race ahead of the merge
// driver, claiming faults from a shared atomic cursor and precomputing
// PODEM candidates on private engines, while the driver replays the
// exact sequential loop and takes each target's candidate from its slot
// instead of generating it inline. Because candidates equal what the
// serial engine would have produced, the merged result is byte-identical
// to Run at EVERY worker count -- parallelism is purely a wall-clock
// knob, never an output knob.
//
// Fortuitous dropping needs no grading of its own: after the driver's
// grader retires the faults an accepted test detects, it marks their
// slots retired, and a worker that claims a retired slot skips it. A
// retired fault has left the survivor list, so the driver never asks
// for its slot. Tests a worker merely generated are never shared: they
// may not survive the merge, so skipping on them would leak scheduling
// order into the output.

// ParallelStats reports the speculation bookkeeping of a parallel run.
type ParallelStats struct {
	// Workers is the shard worker count the run was given
	// (Options.Workers); no more workers start than the deterministic
	// phase has faults.
	Workers int
	// Speculated counts PODEM generations completed by shard workers;
	// Used of them were consumed by the merge driver, Wasted were
	// precomputed for faults the driver never targeted (retired by a
	// test accepted after the worker claimed them).
	Speculated int64
	Used       int64
	Wasted     int64
	// Fortuitous counts claims a worker skipped because the driver had
	// already retired the fault by grading an accepted test.
	Fortuitous int64
	// DriverGenerated counts targets the merge driver generated inline
	// because no worker had claimed them yet.
	DriverGenerated int64
}

// genCandidate is one PODEM outcome, produced either by a shard worker
// or inline by the driver.
type genCandidate struct {
	seq               sim.Seq
	status            FaultStatus
	evals, backtracks int64
	cancelled         bool
}

// candidate runs PODEM on f and packages the outcome with its metered
// effort: the inline generation every precomputed candidate stands in
// for.
func (e *engine) candidate(f fault.Fault) genCandidate {
	seq, status := e.generate(f)
	return genCandidate{
		seq:        seq,
		status:     status,
		evals:      e.evals,
		backtracks: e.backtracks,
		cancelled:  e.cancelled,
	}
}

// specSlot is one survivor's handoff between a worker and the driver.
// Whoever wins the CAS on claimed generates the candidate; a worker
// sends its outcome on cand, nil when it skipped a retired fault.
type specSlot struct {
	claimed atomic.Bool
	retired atomic.Bool
	cand    chan *genCandidate
}

// speculator runs shard workers ahead of the merge driver.
type speculator struct {
	// faults is the survivor list the deterministic phase started from;
	// index maps each fault to its slot.
	faults []fault.Fault
	index  map[fault.Fault]int
	slots  []specSlot

	// scan is the shared work queue: workers claim slot scan.Add(1)-1,
	// each after taking one token from window. window starts with
	// specWindow tokens per worker and the driver adds one per slot its
	// frontier passes, so workers never claim past pos+specWindow*workers.
	scan   atomic.Int64
	window chan struct{}
	// pos is the driver's merge frontier: the index just past the last
	// target it requested.
	pos int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// eng is the driver's own engine for inline generation of
	// unclaimed targets.
	eng *engine

	workers    int
	speculated atomic.Int64
	fortuitous atomic.Int64
	// Driver-owned counters.
	used, driverGenerated int64
}

// specWindow bounds how far workers may speculate past the merge
// frontier, per worker: deep speculation past an accepted test is
// mostly wasted because grading shrinks the survivor list.
const specWindow = 8

// newSpeculator starts workers speculating over the survivor list.
// driverEng is the merge driver's engine (already context-wired).
func newSpeculator(ctx context.Context, c *netlist.Circuit, opt Options, survivors []fault.Fault, driverEng *engine) *speculator {
	n := min(opt.Workers, len(survivors))
	sp := &speculator{
		faults:  survivors,
		index:   make(map[fault.Fault]int, len(survivors)),
		slots:   make([]specSlot, len(survivors)),
		window:  make(chan struct{}, specWindow*n+len(survivors)),
		eng:     driverEng,
		workers: opt.Workers,
	}
	for i, f := range survivors {
		sp.index[f] = i
		sp.slots[i].cand = make(chan *genCandidate, 1)
	}
	for range specWindow * n {
		sp.window <- struct{}{}
	}
	sp.ctx, sp.cancel = context.WithCancel(ctx)
	for range n {
		eng := newEngine(c, opt)
		eng.ctx = sp.ctx
		sp.wg.Add(1)
		go sp.work(eng)
	}
	return sp
}

// work is one shard worker's loop over the shared queue.
func (sp *speculator) work(eng *engine) {
	defer sp.wg.Done()
	for {
		// Stall outside the speculation window so work tracks the merge
		// frontier instead of racing to the end of a list that grading
		// will mostly clear.
		select {
		case <-sp.window:
		case <-sp.ctx.Done():
			return
		}
		i := int(sp.scan.Add(1) - 1)
		if i >= len(sp.faults) {
			return
		}
		slot := &sp.slots[i]
		if !slot.claimed.CompareAndSwap(false, true) {
			continue // driver generated it inline already
		}
		if slot.retired.Load() {
			sp.fortuitous.Add(1)
			slot.cand <- nil
			continue
		}
		cand := eng.candidate(sp.faults[i])
		sp.speculated.Add(1)
		slot.cand <- &cand
		if cand.cancelled {
			return
		}
	}
}

// next returns the candidate for the driver's target f: the worker's
// when one claimed the slot, otherwise generated inline.
func (sp *speculator) next(f fault.Fault) genCandidate {
	i, ok := sp.index[f]
	if !ok {
		// Not a survivor the speculator was built over (defensive; the
		// driver pops only from the survivor list).
		return sp.eng.candidate(f)
	}
	// Advance the merge frontier so stalled workers resume.
	for ; sp.pos <= i; sp.pos++ {
		sp.window <- struct{}{}
	}
	slot := &sp.slots[i]
	if slot.claimed.CompareAndSwap(false, true) {
		// No worker reached this fault yet: generate inline on the
		// driver's engine, exactly the serial path.
		sp.driverGenerated++
		return sp.eng.candidate(f)
	}
	if cand := <-slot.cand; cand != nil {
		sp.used++
		return *cand
	}
	// Unreachable by the retirement invariant (a retired fault left the
	// survivor list before the driver could target it), but a serial
	// regeneration preserves byte-identity even if a future refactor
	// breaks the invariant.
	return sp.eng.candidate(f)
}

// retired marks faults the driver's grader just detected, so a worker
// that claims one later skips it.
func (sp *speculator) retired(faults []fault.Fault) {
	for _, f := range faults {
		if i, ok := sp.index[f]; ok {
			sp.slots[i].retired.Store(true)
		}
	}
}

// close stops the workers and joins them; stats is valid afterwards.
func (sp *speculator) close() {
	sp.cancel()
	sp.wg.Wait()
}

func (sp *speculator) stats() *ParallelStats {
	speculated := sp.speculated.Load()
	return &ParallelStats{
		Workers:         sp.workers,
		Speculated:      speculated,
		Used:            sp.used,
		Wasted:          speculated - sp.used,
		Fortuitous:      sp.fortuitous.Load(),
		DriverGenerated: sp.driverGenerated,
	}
}
