package atpg

import (
	"context"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// engine is the per-circuit PODEM machinery. One engine is reused for
// every target fault; generate resets the per-fault state. All scratch
// state is engine-owned and reused across decisions, frame counts and
// faults.
type engine struct {
	c     *netlist.Circuit
	opt   Options
	order []int
	// SCOAP-style controllability costs (guided backtrace).
	cost0, cost1 []int64

	// per-fault search state
	f          fault.Fault
	frames     int
	free       bool // free-state (redundancy check) mode
	pi         [][]logic.V
	state      []logic.V
	val        [][]logic.C
	stack      []decision
	evals      int64
	backtracks int64
	budget     int64

	// rail buffers of evalGate, sized to the widest fanin
	goodBuf, faultyBuf []logic.V
	// dirty is the first frame whose values are stale; frames are only
	// re-evaluated from there (an assignment at frame t cannot change
	// earlier frames).
	dirty int
	// full makes the next simulate sweep every gate (podem sets it for
	// each new fault and frame count); later calls are event-driven.
	// sweepOnly keeps every call a full sweep, the reference the
	// event-driven path is tested against.
	full, sweepOnly bool
	// evaluated counts the gates simulate actually evaluated; evals
	// charges the full sweep whichever path ran.
	evaluated int64
	// Event-driven implication: gateOut lists each node's gate fanouts
	// with their levels, buckets holds a frame's pending gates per
	// level, and queued marks the gates already in a bucket.
	gateOut [][]netlist.GateRef
	buckets [][]int32
	queued  []bool
	// xmark is the visited set of the X-path check, sized frames*nodes;
	// xstack is its work list.
	xmark  []bool
	xstack []int32
	// isOut marks primary-output nodes for O(1) lookup in hot loops.
	isOut []bool
	// seed is the synchronizing stimulus prefix (SyncSeed option).
	seed sim.Seq

	// btMemo memoizes backtrace dead ends within one top-level call:
	// entry (frame*nodes+node)*3+v failed when it equals btStamp, which
	// each call bumps. Without it the alternative-input DFS is
	// exponential on reconvergent logic whose paths all end at the
	// uncontrollable initial state. fanins is the backtrace's stack of
	// candidate fanin lists; each step pushes its list and pops it on
	// return.
	btMemo  []uint32
	btStamp uint32
	fanins  []int

	// ctx enables cooperative cancellation of the search (nil = never
	// cancelled). It is polled every 256 PODEM decisions via ctxCtr, a
	// granularity coarse enough to stay off the profile; cancelled
	// latches the outcome so the iterative-deepening loop and any
	// remaining generate calls unwind immediately.
	ctx       context.Context
	ctxCtr    uint
	cancelled bool
}

func newEngine(c *netlist.Circuit, opt Options) *engine {
	order, level := c.MustLevels()
	maxLevel, maxFanin := 0, 0
	for _, id := range order {
		maxLevel = max(maxLevel, level[id])
		maxFanin = max(maxFanin, len(c.Nodes[id].Fanin))
	}
	e := &engine{
		c:         c,
		opt:       opt,
		order:     order,
		isOut:     make([]bool, len(c.Nodes)),
		goodBuf:   make([]logic.V, 0, maxFanin),
		faultyBuf: make([]logic.V, 0, maxFanin),
		gateOut:   c.GateFanouts(),
		buckets:   make([][]int32, maxLevel+1),
		queued:    make([]bool, len(c.Nodes)),
	}
	for _, id := range c.Outputs {
		e.isOut[id] = true
	}
	if opt.GuidedBacktrace {
		e.computeControllability()
	}
	if opt.SyncSeed {
		e.seed = findSyncSeed(c)
	}
	return e
}

// findSyncSeed looks for a short structural synchronizing sequence made
// of a held constant vector: all zeros, all ones, or a single bit set or
// cleared -- the patterns that activate reset/enable-style controls. It
// returns nil when none of these initializes the machine.
func findSyncSeed(c *netlist.Circuit) sim.Seq {
	in := len(c.Inputs)
	limit := 2*len(c.DFFs) + 4
	var candidates []sim.Vec
	zeros := make(sim.Vec, in)
	ones := make(sim.Vec, in)
	for i := range ones {
		ones[i] = logic.One
	}
	candidates = append(candidates, zeros, ones)
	for i := 0; i < in; i++ {
		hot := make(sim.Vec, in)
		hot[i] = logic.One
		cold := make(sim.Vec, in)
		for j := range cold {
			cold[j] = logic.One
		}
		cold[i] = logic.Zero
		candidates = append(candidates, hot, cold)
	}
	var best sim.Seq
	m := fsim.NewMachine(c, nil)
	for _, v := range candidates {
		m.Reset()
		for k := 1; k <= limit; k++ {
			m.Step(v)
			if m.Synchronized() {
				if best == nil || k < len(best) {
					best = make(sim.Seq, k)
					for t := range best {
						best[t] = v
					}
				}
				break
			}
		}
	}
	return best
}

// excitable reports whether the fault site's good rail is still unknown
// in some frame, i.e. a new fault effect can still be created.
func (e *engine) excitable() bool {
	drv := e.siteDriver()
	for t := 0; t < e.frames; t++ {
		if e.val[t][drv].Good == logic.X {
			return true
		}
	}
	return false
}

// decision is one PODEM decision: a primary input of some frame, or
// (frame == -1) a free-state variable.
type decision struct {
	frame   int
	idx     int
	v       logic.V
	flipped bool
}

// generate runs the full per-fault flow: optional redundancy check,
// then iterative deepening PODEM. It returns the test sequence when one
// is found.
func (e *engine) generate(f fault.Fault) (sim.Seq, FaultStatus) {
	e.f = f
	e.evals, e.backtracks = 0, 0
	e.budget = e.opt.MaxEvalsPerFault
	if e.cancelled {
		return nil, StatusAborted
	}

	if e.opt.IdentifyRedundant {
		found, exhausted := e.podem(1, true)
		if !found && exhausted {
			return nil, StatusRedundant
		}
	}
	for n := 1; n <= e.opt.MaxFrames; n++ {
		found, _ := e.podem(n, false)
		if found {
			return e.extractTest(), StatusDetected
		}
		if e.cancelled {
			break
		}
		if e.budget > 0 && e.evals >= e.budget {
			break
		}
	}
	return nil, StatusAborted
}

// podem runs the branch-and-bound search over n frames. It reports
// whether a test was found and, if not, whether the search space was
// exhausted (as opposed to hitting a limit).
func (e *engine) podem(n int, free bool) (found, exhausted bool) {
	e.begin(n, free)
	backtracksLeft := int64(e.opt.MaxBacktracks)
	for {
		if e.budget > 0 && e.evals >= e.budget {
			return false, false
		}
		if e.ctx != nil {
			e.ctxCtr++
			if e.cancelled || e.ctxCtr&255 == 0 && e.ctx.Err() != nil {
				e.cancelled = true
				return false, false
			}
		}
		e.simulate()
		if e.detected() {
			return true, false
		}
		if dec, ok := e.nextDecision(); ok {
			e.assign(dec.frame, dec.idx, dec.v)
			e.stack = append(e.stack, dec)
			continue
		}
		// Backtrack.
		for {
			if len(e.stack) == 0 {
				return false, true
			}
			top := &e.stack[len(e.stack)-1]
			if !top.flipped {
				backtracksLeft--
				e.backtracks++
				if backtracksLeft < 0 {
					return false, false
				}
				top.flipped = true
				top.v = logic.Not(top.v)
				e.assign(top.frame, top.idx, top.v)
				break
			}
			e.assign(top.frame, top.idx, logic.X)
			e.stack = e.stack[:len(e.stack)-1]
		}
	}
}

// begin resets the search state for n frames: every decision variable
// unknown, an empty decision stack, and a full sweep due. The buffers
// only grow, so a warmed engine allocates nothing here.
func (e *engine) begin(n int, free bool) {
	// The synchronizing seed occupies extra leading frames; the search
	// space (decision variables) stays the n requested frames.
	nSeed := 0
	if !free && e.seed != nil {
		nSeed = len(e.seed)
	}
	e.frames = nSeed + n
	e.free = free
	nodes := len(e.c.Nodes)
	for len(e.pi) < e.frames {
		e.pi = append(e.pi, make([]logic.V, len(e.c.Inputs)))
		e.val = append(e.val, make([]logic.C, nodes))
	}
	for t := 0; t < e.frames; t++ {
		if t < nSeed {
			copy(e.pi[t], e.seed[t])
			continue
		}
		for i := range e.pi[t] {
			e.pi[t][i] = logic.X
		}
	}
	if e.state == nil {
		e.state = make([]logic.V, len(e.c.DFFs))
	}
	for i := range e.state {
		e.state[i] = logic.X
	}
	if len(e.btMemo) < e.frames*nodes*3 {
		e.btMemo = make([]uint32, e.frames*nodes*3)
	}
	e.stack = e.stack[:0]
	e.dirty = 0
	e.full = true
}

func (e *engine) assign(frame, idx int, v logic.V) {
	if frame < 0 {
		e.state[idx] = v
		e.dirty = 0
		return
	}
	e.pi[frame][idx] = v
	if frame < e.dirty {
		e.dirty = frame
	}
}

// inject applies the target fault to the value on the given site: the
// faulty rail is forced to the stuck value, the good rail is untouched.
func (e *engine) inject(site fault.Site, c logic.C) logic.C {
	if site == e.f.Site {
		c.Faulty = e.f.SA
	}
	return c
}

// simulate brings every frame from dirty on up to date with the
// current assignment. The first call after begin sweeps every gate;
// later calls are event-driven: a frame re-injects its primary inputs
// and flip-flops, and only the gate fanouts of values that changed are
// evaluated, level by level, a gate whose output changes scheduling its
// own fanouts. Both paths charge evals with the full sweep, so effort
// counts and budgets do not depend on which one ran.
func (e *engine) simulate() {
	c := e.c
	start := e.dirty
	if start > e.frames {
		start = 0
	}
	e.dirty = e.frames
	e.evals += int64(e.frames-start) * int64(len(e.order))
	sweep := e.full || e.sweepOnly
	e.full = false
	for t := start; t < e.frames; t++ {
		vals := e.val[t]
		for i, id := range c.Inputs {
			e.setSource(vals, id, e.inject(fault.Site{Node: id, Pin: fault.StemPin}, logic.CFromV(e.pi[t][i])), sweep)
		}
		for i, id := range c.DFFs {
			var in logic.C
			switch {
			case t > 0:
				in = e.inject(fault.Site{Node: id, Pin: 0}, e.val[t-1][c.Nodes[id].Fanin[0]])
			case e.free:
				in = logic.CFromV(e.state[i])
			default:
				in = logic.CX
			}
			e.setSource(vals, id, e.inject(fault.Site{Node: id, Pin: fault.StemPin}, in), sweep)
		}
		if sweep {
			for _, id := range e.order {
				vals[id] = e.evalGate(vals, id)
			}
			e.evaluated += int64(len(e.order))
			continue
		}
		for l := range e.buckets {
			// Gates only schedule fanouts on higher levels, so this
			// level's bucket is complete when its drain starts.
			for _, id := range e.buckets[l] {
				e.queued[id] = false
				out := e.evalGate(vals, int(id))
				e.evaluated++
				if out != vals[id] {
					vals[id] = out
					e.schedule(int(id))
				}
			}
			e.buckets[l] = e.buckets[l][:0]
		}
	}
}

// setSource stores a primary-input or flip-flop value of one frame and,
// off the full sweep, schedules the node's gate fanouts when it changed.
func (e *engine) setSource(vals []logic.C, id int, v logic.C, sweep bool) {
	if vals[id] == v {
		return
	}
	vals[id] = v
	if !sweep {
		e.schedule(id)
	}
}

// schedule queues the gate fanouts of id for evaluation in this frame.
func (e *engine) schedule(id int) {
	for _, fo := range e.gateOut[id] {
		if !e.queued[fo.ID] {
			e.queued[fo.ID] = true
			e.buckets[fo.Level] = append(e.buckets[fo.Level], fo.ID)
		}
	}
}

// evalGate evaluates gate id of one frame on both rails, applying the
// target fault where the gate is its site. The rails are evaluated over
// reusable buffers instead of through logic.EvalC, which would allocate
// per call.
func (e *engine) evalGate(vals []logic.C, id int) logic.C {
	n := &e.c.Nodes[id]
	good, faulty := e.goodBuf[:0], e.faultyBuf[:0]
	branch := e.f.Node == id && !e.f.IsStem()
	for pin, fi := range n.Fanin {
		v := vals[fi]
		if branch && pin == e.f.Pin {
			v.Faulty = e.f.SA
		}
		good = append(good, v.Good)
		faulty = append(faulty, v.Faulty)
	}
	out := logic.C{Good: logic.Eval(n.Op, good), Faulty: logic.Eval(n.Op, faulty)}
	if e.f.Node == id && e.f.IsStem() {
		out.Faulty = e.f.SA
	}
	return out
}

// detected reports whether a fault effect reaches an observation point:
// a primary output in any frame, plus (free mode) the pseudo outputs --
// the flip-flop data inputs of the final frame.
func (e *engine) detected() bool {
	for t := 0; t < e.frames; t++ {
		for _, id := range e.c.Outputs {
			if e.val[t][id].IsError() {
				return true
			}
		}
	}
	if e.free {
		last := e.frames - 1
		for _, id := range e.c.DFFs {
			v := e.inject(fault.Site{Node: id, Pin: 0}, e.val[last][e.c.Nodes[id].Fanin[0]])
			if v.IsError() {
				return true
			}
		}
	}
	return false
}

// siteValue returns the composite value on the fault site's line at
// frame t (after injection).
func (e *engine) siteValue(t int) logic.C {
	if e.f.IsStem() {
		return e.val[t][e.f.Node]
	}
	drv := e.c.Nodes[e.f.Node].Fanin[e.f.Pin]
	return e.inject(e.f.Site, e.val[t][drv])
}

// siteDriver returns the node whose output value feeds the fault site.
func (e *engine) siteDriver() int {
	if e.f.IsStem() {
		return e.f.Node
	}
	return e.c.Nodes[e.f.Node].Fanin[e.f.Pin]
}

// xpathExists is the classical X-path check: it reports whether some
// existing fault effect can still reach an observation point through
// nodes whose value is not yet fully determined. Both rails being known
// is monotone under refinement, so a failed check soundly prunes the
// whole subtree. Without this check PODEM keeps chasing D-frontier
// gates whose errors are blocked everywhere downstream. Frames before
// tx, the first excited frame, carry no error and are not visited.
func (e *engine) xpathExists(tx int) bool {
	c := e.c
	n := len(c.Nodes)
	if len(e.xmark) < e.frames*n {
		e.xmark = make([]bool, e.frames*n)
	} else {
		clear(e.xmark[tx*n : e.frames*n])
	}
	open := func(t, id int) bool {
		v := e.val[t][id]
		return v.Good == logic.X || v.Faulty == logic.X || v.IsError()
	}
	stack := e.xstack[:0]
	defer func() { e.xstack = stack[:0] }()
	push := func(t, id int) {
		k := t*n + id
		if !e.xmark[k] {
			e.xmark[k] = true
			stack = append(stack, int32(k))
		}
	}
	// Seeds: every node already carrying an error, plus -- for a branch
	// fault -- the consuming node of the faulted input line, whose error
	// is only visible on the injected line, not on any node output.
	for t := tx; t < e.frames; t++ {
		for id := range c.Nodes {
			if e.val[t][id].IsError() {
				push(t, id)
			}
		}
		if !e.f.IsStem() && e.siteValue(t).IsError() {
			id := e.f.Node
			if c.Nodes[id].Kind == netlist.KindDFF {
				if t+1 < e.frames {
					push(t+1, id)
				} else if e.free {
					return true
				}
			} else if open(t, id) {
				push(t, id)
			}
		}
	}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t, id := int(k)/n, int(k)%n
		if e.isOut[id] {
			return true
		}
		for _, s := range c.Nodes[id].Fanout {
			if c.Nodes[s].Kind == netlist.KindDFF {
				if t+1 < e.frames {
					push(t+1, s) // the register forwards any value
				} else if e.free {
					return true // pseudo output in redundancy mode
				}
				continue
			}
			if open(t, s) {
				push(t, s)
			}
		}
	}
	return false
}

// nextDecision finds an objective (propagation first, then excitation)
// and backtraces it to an unassigned input; ok is false when no
// objective remains, which triggers a backtrack.
//
// Errors start only at the fault site and move forward in time (the
// free state carries none), so no frame before the first excited one
// holds an error: the propagation scan starts there, and is skipped
// when no frame is excited.
func (e *engine) nextDecision() (decision, bool) {
	tx := 0
	for tx < e.frames && !e.siteValue(tx).IsError() {
		tx++
	}
	if tx < e.frames && !e.xpathExists(tx) {
		// An effect exists but can no longer reach any observation
		// point: every extension of this assignment is futile unless a
		// different frame can still be excited, which the excitation
		// loop below would need an un-excited X site for -- covered by
		// falling through when the site is saturated.
		if !e.excitable() {
			return decision{}, false
		}
	}
	// Propagation: drive an error through a D-frontier gate.
	for t := e.frames - 1; t >= tx; t-- {
		for _, id := range e.order {
			n := &e.c.Nodes[id]
			out := e.val[t][id]
			if out.IsError() || !out.MaybeError() {
				continue
			}
			hasError := false
			for pin, fi := range n.Fanin {
				if e.inject(fault.Site{Node: id, Pin: pin}, e.val[t][fi]).IsError() {
					hasError = true
					break
				}
			}
			if !hasError {
				continue
			}
			// Set one unknown side input to the non-controlling value.
			want := logic.One
			if cv, ok := n.Op.ControllingValue(); ok {
				want = logic.Not(cv)
			} else if n.Op == logic.OpXor || n.Op == logic.OpXnor {
				want = logic.Zero
			}
			for _, fi := range n.Fanin {
				if e.val[t][fi].Good != logic.X {
					continue
				}
				if dec, ok := e.backtrace(fi, t, want); ok {
					return dec, true
				}
			}
		}
	}
	// Excitation: make the good rail at the fault site the complement
	// of the stuck value in some frame.
	drv := e.siteDriver()
	for t := 0; t < e.frames; t++ {
		if e.siteValue(t).IsError() {
			continue // already excited here
		}
		if e.val[t][drv].Good != logic.X {
			continue
		}
		if dec, ok := e.backtrace(drv, t, logic.Not(e.f.SA)); ok {
			return dec, true
		}
	}
	return decision{}, false
}

// backtrace walks from an objective (node, frame, desired good value)
// to an unassigned primary input (or free-state variable), flipping the
// desired value through inverting gates and crossing flip-flops into
// earlier frames. It explores alternative unknown inputs depth-first so
// a dead end at the uncontrollable initial state does not hide a
// controllable path; dead ends are memoized per call to keep the
// exploration linear.
func (e *engine) backtrace(node, frame int, v logic.V) (decision, bool) {
	e.btStamp++
	if e.btStamp == 0 {
		clear(e.btMemo)
		e.btStamp = 1
	}
	return e.backtraceMemo(node, frame, v)
}

func (e *engine) backtraceMemo(node, frame int, v logic.V) (decision, bool) {
	k := (frame*len(e.c.Nodes)+node)*3 + int(v)
	if e.btMemo[k] == e.btStamp {
		return decision{}, false
	}
	dec, ok := e.backtraceStep(node, frame, v)
	if !ok {
		e.btMemo[k] = e.btStamp
	}
	return dec, ok
}

func (e *engine) backtraceStep(node, frame int, v logic.V) (decision, bool) {
	n := &e.c.Nodes[node]
	switch n.Kind {
	case netlist.KindInput:
		idx := e.c.InputIndex(node)
		if e.pi[frame][idx] != logic.X {
			return decision{}, false
		}
		return decision{frame: frame, idx: idx, v: v}, true
	case netlist.KindDFF:
		if frame == 0 {
			if !e.free {
				return decision{}, false
			}
			idx := e.c.DFFIndex(node)
			if e.state[idx] != logic.X {
				return decision{}, false
			}
			return decision{frame: -1, idx: idx, v: v}, true
		}
		return e.backtraceMemo(n.Fanin[0], frame-1, v)
	}
	// Combinational gate.
	switch n.Op {
	case logic.OpConst0, logic.OpConst1:
		return decision{}, false
	case logic.OpBuf:
		return e.backtraceMemo(n.Fanin[0], frame, v)
	case logic.OpNot:
		return e.backtraceMemo(n.Fanin[0], frame, logic.Not(v))
	case logic.OpXor, logic.OpXnor:
		want := v
		if n.Op == logic.OpXnor {
			want = logic.Not(want)
		}
		// Desired value for the chosen unknown input assumes the other
		// unknowns stay at 0; complements are explored by backtracking.
		parity := logic.Zero
		base := len(e.fanins)
		for _, fi := range n.Fanin {
			g := e.val[frame][fi].Good
			if g == logic.X {
				e.fanins = append(e.fanins, fi)
			} else {
				parity = logic.Xor(parity, g)
			}
		}
		return e.backtraceAny(base, frame, logic.Xor(want, parity))
	}
	// AND/OR family.
	want := v
	if n.Op.Inverting() {
		want = logic.Not(want)
	}
	return e.backtraceAny(e.unknownInputs(n, frame, want), frame, want)
}

// backtraceAny tries the fanins pushed on e.fanins from base on, in
// order, until one backtraces to a decision, and pops them. Deeper steps
// push above them and pop before returning, so the list stays intact
// even when a push moves the buffer.
func (e *engine) backtraceAny(base, frame int, v logic.V) (decision, bool) {
	for i, end := base, len(e.fanins); i < end; i++ {
		if dec, ok := e.backtraceMemo(e.fanins[i], frame, v); ok {
			e.fanins = e.fanins[:base]
			return dec, true
		}
	}
	e.fanins = e.fanins[:base]
	return decision{}, false
}

// unknownInputs pushes the gate's X-valued fanins on e.fanins, ordered
// by the backtrace heuristic (cheapest-to-control first when guidance is
// on), and returns where they start.
func (e *engine) unknownInputs(n *netlist.Node, frame int, want logic.V) int {
	base := len(e.fanins)
	for _, fi := range n.Fanin {
		if e.val[frame][fi].Good == logic.X {
			e.fanins = append(e.fanins, fi)
		}
	}
	unknowns := e.fanins[base:]
	if !e.opt.GuidedBacktrace || len(unknowns) < 2 {
		return base
	}
	cost := e.cost1
	if want == logic.Zero {
		cost = e.cost0
	}
	// insertion sort by cost; fanin lists are short
	for i := 1; i < len(unknowns); i++ {
		for j := i; j > 0 && cost[unknowns[j-1]] > cost[unknowns[j]]; j-- {
			unknowns[j-1], unknowns[j] = unknowns[j], unknowns[j-1]
		}
	}
	return base
}

// extractTest renders the current PI assignment as a test sequence,
// filling unassigned inputs with the configured fill value.
func (e *engine) extractTest() sim.Seq {
	fill := e.opt.FillValue
	if fill == logic.X {
		fill = logic.Zero
	}
	seq := make(sim.Seq, e.frames)
	for t := range seq {
		v := make(sim.Vec, len(e.c.Inputs))
		for i := range v {
			if e.pi[t][i] == logic.X {
				v[i] = fill
			} else {
				v[i] = e.pi[t][i]
			}
		}
		seq[t] = v
	}
	return seq
}

// computeControllability derives SCOAP-flavoured 0/1 controllability
// costs by relaxation; flip-flop outputs cost extra to discourage
// backtraces through deep state.
func (e *engine) computeControllability() {
	const inf = int64(1) << 40
	const seqPenalty = 20
	n := len(e.c.Nodes)
	e.cost0 = make([]int64, n)
	e.cost1 = make([]int64, n)
	for i := range e.cost0 {
		e.cost0[i], e.cost1[i] = inf, inf
	}
	for _, id := range e.c.Inputs {
		e.cost0[id], e.cost1[id] = 1, 1
	}
	for pass := 0; pass < 8; pass++ {
		changed := false
		update := func(arr []int64, id int, v int64) {
			if v < arr[id] {
				arr[id] = v
				changed = true
			}
		}
		for _, id := range e.c.DFFs {
			fi := e.c.Nodes[id].Fanin[0]
			update(e.cost0, id, sat(e.cost0[fi]+seqPenalty))
			update(e.cost1, id, sat(e.cost1[fi]+seqPenalty))
		}
		for _, id := range e.order {
			nd := &e.c.Nodes[id]
			c0, c1 := gateControllability(nd, e.cost0, e.cost1)
			update(e.cost0, id, c0)
			update(e.cost1, id, c1)
		}
		if !changed {
			break
		}
	}
}

func sat(v int64) int64 {
	const inf = int64(1) << 40
	if v > inf {
		return inf
	}
	return v
}

// gateControllability returns the SCOAP-style cost of setting the gate
// output to 0 and to 1.
func gateControllability(n *netlist.Node, cost0, cost1 []int64) (int64, int64) {
	const inf = int64(1) << 40
	minOf := func(arr []int64) int64 {
		m := inf
		for _, fi := range n.Fanin {
			if arr[fi] < m {
				m = arr[fi]
			}
		}
		return m
	}
	sumOf := func(arr []int64) int64 {
		var s int64
		for _, fi := range n.Fanin {
			s = sat(s + arr[fi])
		}
		return s
	}
	switch n.Op {
	case logic.OpConst0:
		return 0, inf
	case logic.OpConst1:
		return inf, 0
	case logic.OpBuf:
		return sat(cost0[n.Fanin[0]] + 1), sat(cost1[n.Fanin[0]] + 1)
	case logic.OpNot:
		return sat(cost1[n.Fanin[0]] + 1), sat(cost0[n.Fanin[0]] + 1)
	case logic.OpAnd:
		return sat(minOf(cost0) + 1), sat(sumOf(cost1) + 1)
	case logic.OpNand:
		return sat(sumOf(cost1) + 1), sat(minOf(cost0) + 1)
	case logic.OpOr:
		return sat(sumOf(cost0) + 1), sat(minOf(cost1) + 1)
	case logic.OpNor:
		return sat(minOf(cost1) + 1), sat(sumOf(cost0) + 1)
	case logic.OpXor, logic.OpXnor:
		// Cheap approximation: either rail costs the sum of the easier
		// sides plus one.
		var s int64
		for _, fi := range n.Fanin {
			c := cost0[fi]
			if cost1[fi] < c {
				c = cost1[fi]
			}
			s = sat(s + c)
		}
		return sat(s + 1), sat(s + 1)
	}
	return inf, inf
}
