package atpg

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/fsim"
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
// exact sequential loop and pulls each target's candidate from its slot
// instead of generating it inline. Because candidates equal what the
// serial engine would have produced, the merged result is byte-identical
// to Run at EVERY worker count -- parallelism is purely a wall-clock
// knob, never an output knob.
//
// Fortuitous dropping stays sound by construction: each worker owns a
// private fsim.Simulator over the survivors and skips a claimed fault
// only when a test the driver has already ACCEPTED (appended to the
// result and graded) covers it. Fault-simulation detection is
// deterministic per (circuit, fault, sequence), so any such fault was
// also detected by the driver's own grader when that test was graded --
// meaning it left the survivor list and the driver never asks for its
// slot. Tests a worker merely generated are never shared: they may not
// survive the merge, so skipping on them would leak scheduling order
// into the output.

// ParallelStats reports the speculation bookkeeping of a parallel run.
type ParallelStats struct {
	// Workers is the shard worker count the run was given
	// (Options.Workers); no more workers start than the deterministic
	// phase has faults.
	Workers int
	// Speculated counts PODEM generations completed by shard workers;
	// Used of them were consumed by the merge driver, Wasted were
	// precomputed for faults the driver never targeted (covered by a
	// test accepted after the worker claimed them).
	Speculated int64
	Used       int64
	Wasted     int64
	// Fortuitous counts claims a worker skipped because an accepted
	// test already covered the fault in its private simulator.
	Fortuitous int64
	// DriverGenerated counts targets the merge driver generated inline
	// because no worker had claimed them yet.
	DriverGenerated int64
	// Broadcasts counts accepted test sequences fanned out to shards.
	Broadcasts int64
	// GradeStats accumulates the fault-simulation work of the private
	// shard simulators (the merge grader's work is in Result.FsimStats).
	GradeStats fsim.Stats
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
// effort: the inline generation every candidate source falls back to.
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

// candidateSource feeds the deterministic merge loop of RunContext.
type candidateSource interface {
	// next returns the PODEM candidate for the target fault, generating
	// it on the spot when no precomputed one exists.
	next(f fault.Fault) genCandidate
	// accepted tells the source a generated test entered the result and
	// was graded, so shards may use it for fortuitous dropping.
	accepted(seq sim.Seq)
	// close stops any workers and must be called before parallelStats.
	// It is idempotent.
	close()
	// parallelStats returns the speculation counters (nil when the
	// source is single-threaded).
	parallelStats() *ParallelStats
}

// Slot lifecycle: Free -> Claimed -> (Done | Skipped). Free->Claimed is
// a CAS race between a shard worker and the driver; the later
// transitions happen under the speculator mutex so cond waiters observe
// them.
const (
	slotFree int32 = iota
	slotClaimed
	slotDone
	slotSkipped
)

type specSlot struct {
	state atomic.Int32
	// cand is written by the claim holder before the Done transition and
	// read by the driver after observing Done; the mutex orders the two.
	cand genCandidate
	// used marks candidates the driver consumed (for the Wasted count).
	used bool
	// byWorker marks who generated a Done candidate.
	byWorker bool
}

// speculator runs shard workers ahead of the merge driver.
type speculator struct {
	c   *netlist.Circuit
	opt Options
	// faults is the survivor list the deterministic phase started from;
	// index maps each fault to its slot.
	faults []fault.Fault
	index  map[fault.Fault]int
	slots  []specSlot

	// scan is the shared work queue: workers claim slot scan.Add(1)-1.
	scan atomic.Int64

	mu   sync.Mutex
	cond *sync.Cond
	// pos is the driver's merge frontier (index just past the last
	// target it requested); workers stall beyond pos+window.
	pos int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once

	// eng is the driver's own engine for inline generation of
	// unclaimed targets.
	eng *engine

	fortuitous      atomic.Int64
	driverGenerated atomic.Int64
	broadcasts      int64

	workers []*specWorker
	stats   ParallelStats
}

// specWindow bounds how far workers may speculate past the merge
// frontier, per worker: deep speculation past an accepted test is
// mostly wasted because grading shrinks the survivor list.
const specWindow = 8

type specWorker struct {
	sp  *speculator
	eng *engine
	// sim is the worker's private fortuitous-drop simulator; pend holds
	// accepted tests not yet applied to it.
	sim  *fsim.Simulator
	pmu  sync.Mutex
	pend []sim.Seq
}

// newSpeculator starts workers speculating over the survivor list.
// driverEng is the merge driver's engine (already context-wired).
func newSpeculator(ctx context.Context, c *netlist.Circuit, opt Options, survivors []fault.Fault, driverEng *engine) *speculator {
	sp := &speculator{
		c:      c,
		opt:    opt,
		faults: append([]fault.Fault(nil), survivors...),
		index:  make(map[fault.Fault]int, len(survivors)),
		slots:  make([]specSlot, len(survivors)),
		eng:    driverEng,
	}
	sp.cond = sync.NewCond(&sp.mu)
	sp.ctx, sp.cancel = context.WithCancel(ctx)
	for i, f := range sp.faults {
		sp.index[f] = i
	}
	n := min(opt.Workers, len(sp.faults))
	sp.stats.Workers = opt.Workers
	// Build every worker before starting any: started goroutines read
	// len(sp.workers) for the speculation window.
	for i := 0; i < n; i++ {
		w := &specWorker{sp: sp}
		w.eng = newEngine(c, opt)
		w.eng.ctx = sp.ctx
		w.sim = fsim.NewSimulator(c, sp.faults)
		// Shard simulators run on the shard's goroutine; the group pool
		// inside each would oversubscribe the machine n times over.
		w.sim.SetMaxWorkers(1)
		sp.workers = append(sp.workers, w)
	}
	for _, w := range sp.workers {
		sp.wg.Add(1)
		go w.run()
	}
	return sp
}

func (w *specWorker) run() {
	defer w.sp.wg.Done()
	sp := w.sp
	for {
		i := int(sp.scan.Add(1) - 1)
		if i >= len(sp.faults) {
			return
		}
		// Stall outside the speculation window so work tracks the merge
		// frontier instead of racing to the end of a list that grading
		// will mostly clear.
		sp.mu.Lock()
		for i >= sp.pos+specWindow*len(sp.workers) && sp.ctx.Err() == nil {
			sp.cond.Wait()
		}
		sp.mu.Unlock()
		if sp.ctx.Err() != nil {
			return
		}
		slot := &sp.slots[i]
		if !slot.state.CompareAndSwap(slotFree, slotClaimed) {
			continue // driver generated it inline already
		}
		f := sp.faults[i]
		w.drain()
		if !w.sim.Alive(f) {
			// An accepted test covers f, so the driver's grader has
			// already retired it: the slot will never be requested.
			sp.fortuitous.Add(1)
			sp.publish(slot, genCandidate{}, slotSkipped, true)
			continue
		}
		cand := w.eng.candidate(f)
		sp.publish(slot, cand, slotDone, true)
		if cand.cancelled {
			return
		}
	}
}

// drain applies pending accepted tests to the worker's private
// simulator. Each test is simulated from the all-X state, mirroring the
// merge grader, so detection matches it fault for fault.
func (w *specWorker) drain() {
	w.pmu.Lock()
	pend := w.pend
	w.pend = nil
	w.pmu.Unlock()
	for _, seq := range pend {
		w.sim.Reset()
		// Cancellation mid-sequence only under-drops; correctness never
		// depends on a shard observing a detection.
		_, _ = w.sim.SimulateContext(w.sp.ctx, seq)
	}
}

// publish moves a claimed slot to its terminal state under the mutex so
// a driver blocked in next observes the transition.
func (sp *speculator) publish(slot *specSlot, cand genCandidate, state int32, byWorker bool) {
	sp.mu.Lock()
	slot.cand = cand
	slot.byWorker = byWorker
	slot.state.Store(state)
	sp.cond.Broadcast()
	sp.mu.Unlock()
}

func (sp *speculator) next(f fault.Fault) genCandidate {
	i, ok := sp.index[f]
	if !ok {
		// Not a survivor the speculator was built over (defensive; the
		// driver pops only from the survivor list).
		return sp.eng.candidate(f)
	}
	// Advance the merge frontier so stalled workers resume.
	sp.mu.Lock()
	if i+1 > sp.pos {
		sp.pos = i + 1
	}
	sp.cond.Broadcast()
	sp.mu.Unlock()

	slot := &sp.slots[i]
	if slot.state.CompareAndSwap(slotFree, slotClaimed) {
		// No worker reached this fault yet: generate inline on the
		// driver's engine, exactly the serial path.
		sp.driverGenerated.Add(1)
		cand := sp.eng.candidate(f)
		sp.publish(slot, cand, slotDone, false)
		sp.mu.Lock()
		slot.used = true
		sp.mu.Unlock()
		return cand
	}
	// A worker holds the claim; wait for its terminal transition.
	sp.mu.Lock()
	for slot.state.Load() == slotClaimed {
		sp.cond.Wait()
	}
	cand := slot.cand
	skipped := slot.state.Load() == slotSkipped
	slot.used = !skipped
	sp.mu.Unlock()
	if skipped {
		// Unreachable by the acceptance invariant (a skipped fault left
		// the survivor list before the driver could target it), but a
		// serial regeneration preserves byte-identity even if a future
		// refactor breaks the invariant.
		return sp.eng.candidate(f)
	}
	return cand
}

func (sp *speculator) accepted(seq sim.Seq) {
	sp.broadcasts++
	for _, w := range sp.workers {
		w.pmu.Lock()
		w.pend = append(w.pend, seq)
		w.pmu.Unlock()
	}
}

func (sp *speculator) close() {
	sp.once.Do(func() {
		sp.cancel()
		sp.mu.Lock()
		sp.cond.Broadcast()
		sp.mu.Unlock()
		sp.wg.Wait()
		sp.settle()
	})
}

// settle folds the slot table and worker counters into stats; only
// called after close joined every worker.
func (sp *speculator) settle() {
	for i := range sp.slots {
		s := &sp.slots[i]
		switch s.state.Load() {
		case slotDone:
			if s.byWorker {
				sp.stats.Speculated++
				if s.used {
					sp.stats.Used++
				} else {
					sp.stats.Wasted++
				}
			}
		}
	}
	sp.stats.Fortuitous = sp.fortuitous.Load()
	sp.stats.DriverGenerated = sp.driverGenerated.Load()
	sp.stats.Broadcasts = sp.broadcasts
	for _, w := range sp.workers {
		sp.stats.GradeStats.Add(w.sim.Stats())
	}
}

func (sp *speculator) parallelStats() *ParallelStats {
	st := sp.stats
	return &st
}
