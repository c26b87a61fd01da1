package retime

import (
	"context"
	"fmt"
	"math"
)

// This file implements optimal register minimization as a minimum-cost
// flow problem -- the classical Leiserson-Saxe formulation. The primal
//
//	minimize   sum_e w(e) + r(head e) - r(tail e)
//	subject to w(e) + r(head e) - r(tail e) >= 0,  fixed vertices equal
//
// has the LP dual
//
//	minimize   sum_e w(e) f(e)
//	subject to (flow out - flow in)(v) = outdeg(v) - indeg(v),  f >= 0
//
// a min-cost flow with one arc per retiming edge. Successive shortest
// paths solve the flow; the final residual distances give an optimal
// retiming (r = -dist). ReduceRegisters remains as the scalable greedy
// heuristic; the ablation benchmark compares the two.

// MinRegisters returns a retiming minimizing the total register count
// with no period constraint (the testability direction of Fig. 6),
// together with the optimal count.
func (g *Graph) MinRegisters() (Retiming, int, error) {
	return g.minRegistersWith(context.Background(), nil)
}

// MinRegistersContext is MinRegisters with cooperative cancellation:
// the flow solver checks the context once per augmentation round and
// per Bellman-Ford sweep, so a cancelled minimization stops within one
// relaxation pass.
func (g *Graph) MinRegistersContext(ctx context.Context) (Retiming, int, error) {
	return g.minRegistersWith(ctx, nil)
}

// MinRegistersAtPeriod minimizes registers subject to clock period at
// most c, the full Leiserson-Saxe objective, by adding the W/D period
// constraints to the flow network. It requires the W/D matrices, so it
// is subject to MaxWDVertices.
func (g *Graph) MinRegistersAtPeriod(c int) (Retiming, int, error) {
	W, D, err := g.WDMatrices()
	if err != nil {
		return nil, 0, err
	}
	var extras []flowArcSpec
	n := len(g.Verts)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && W[u][v] != math.MaxInt32 && D[u][v] != math.MinInt32 && int(D[u][v]) > c {
				// r(u) - r(v) <= W(u,v) - 1, with zero objective weight:
				// a pure constraint arc.
				extras = append(extras, flowArcSpec{u, v, int(W[u][v]) - 1, true})
			}
		}
	}
	r, count, err := g.minRegistersWith(context.Background(), extras)
	if err != nil {
		return nil, 0, err
	}
	if _, p, ok := g.Delta(r); !ok || p > c {
		return nil, 0, fmt.Errorf("retime: period-constrained minimization missed period %d (got %d)", c, p)
	}
	return r, count, nil
}

// flowArcSpec is an additional difference constraint r(u)-r(v) <= w.
// constraintOnly arcs carry no objective weight (capacity bound only on
// the dual side: their flow is free, so they appear with cost w but no
// supply contribution).
type flowArcSpec struct {
	u, v           int
	w              int
	constraintOnly bool
}

// MaxFlowVertices bounds the exact solver: successive shortest paths
// with Bellman-Ford relaxation is cubic-ish, so larger graphs should
// use ReduceRegisters instead.
const MaxFlowVertices = 1000

func (g *Graph) minRegistersWith(ctx context.Context, extras []flowArcSpec) (Retiming, int, error) {
	n := len(g.Verts)
	if n > MaxFlowVertices {
		return nil, 0, fmt.Errorf("retime: %d vertices exceeds the flow solver cap of %d", n, MaxFlowVertices)
	}
	f := newFlow(n)
	supply := make([]int64, n)
	for e := range g.Edges {
		ed := &g.Edges[e]
		f.addArc(ed.From, ed.To, int64(ed.W))
		supply[ed.From]++
		supply[ed.To]--
	}
	// Tie the fixed vertices together with free bidirectional arcs.
	fixed := -1
	for v := range g.Verts {
		if !g.Verts[v].Fixed() {
			continue
		}
		if fixed < 0 {
			fixed = v
			continue
		}
		f.addArc(fixed, v, 0)
		f.addArc(v, fixed, 0)
	}
	for _, ex := range extras {
		f.addArc(ex.u, ex.v, int64(ex.w))
	}
	if err := f.solve(ctx, supply); err != nil {
		return nil, 0, err
	}
	dist, err := f.residualDistances()
	if err != nil {
		return nil, 0, err
	}
	r := make(Retiming, n)
	var offset int64
	if fixed >= 0 {
		offset = -dist[fixed]
	}
	for v := range r {
		r[v] = int(-dist[v] - offset)
	}
	if err := g.Check(r); err != nil {
		return nil, 0, err
	}
	return r, g.RegistersAfter(r), nil
}

// flow is a small successive-shortest-paths min-cost flow solver with
// unbounded arc capacities (all our arcs are uncapacitated).
type flow struct {
	n    int
	head [][]int // adjacency: arc indices per node
	to   []int
	cost []int64
	flo  []int64 // flow on forward arcs (backward residual capacity)
	fwd  []bool  // arc direction marker: forward arcs are uncapacitated
}

func newFlow(n int) *flow {
	return &flow{n: n, head: make([][]int, n)}
}

// addArc adds an uncapacitated arc u->v with the given cost, plus its
// residual mate.
func (f *flow) addArc(u, v int, cost int64) {
	f.head[u] = append(f.head[u], len(f.to))
	f.to = append(f.to, v)
	f.cost = append(f.cost, cost)
	f.flo = append(f.flo, 0)
	f.fwd = append(f.fwd, true)

	f.head[v] = append(f.head[v], len(f.to))
	f.to = append(f.to, u)
	f.cost = append(f.cost, -cost)
	f.flo = append(f.flo, 0)
	f.fwd = append(f.fwd, false)
}

// capacity of residual arc a: forward arcs are infinite, backward arcs
// carry the mate's current flow.
func (f *flow) capacity(a int) int64 {
	if f.fwd[a] {
		return math.MaxInt64 / 4
	}
	return f.flo[a^1]
}

// push sends q units through residual arc a.
func (f *flow) push(a int, q int64) {
	if f.fwd[a] {
		f.flo[a] += q
	} else {
		f.flo[a^1] -= q
	}
}

// solve routes all supply to demand with successive shortest paths
// (Bellman-Ford each round; costs may be negative on residual arcs).
// The context is checked once per augmentation round.
func (f *flow) solve(ctx context.Context, supply []int64) error {
	excess := append([]int64(nil), supply...)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Multi-source shortest path from all excess nodes.
		var sources []int
		for v, e := range excess {
			if e > 0 {
				sources = append(sources, v)
			}
		}
		if len(sources) == 0 {
			return nil
		}
		const inf = math.MaxInt64 / 4
		dist := make([]int64, f.n)
		prev := make([]int, f.n)
		for v := range dist {
			dist[v] = inf
			prev[v] = -1
		}
		for _, s := range sources {
			dist[s] = 0
		}
		for iter := 0; iter < f.n; iter++ {
			changed := false
			for u := 0; u < f.n; u++ {
				if dist[u] >= inf {
					continue
				}
				for _, a := range f.head[u] {
					if f.capacity(a) <= 0 {
						continue
					}
					if d := dist[u] + f.cost[a]; d < dist[f.to[a]] {
						dist[f.to[a]] = d
						prev[f.to[a]] = a
						changed = true
					}
				}
			}
			if !changed {
				break
			}
			if iter == f.n-1 {
				return fmt.Errorf("retime: negative cycle in flow network")
			}
		}
		// Pick the closest deficit node.
		best := -1
		for v, e := range excess {
			if e < 0 && dist[v] < inf && (best < 0 || dist[v] < dist[best]) {
				best = v
			}
		}
		if best < 0 {
			return fmt.Errorf("retime: flow network disconnected (supply cannot reach demand)")
		}
		// Trace back to a source, find bottleneck.
		q := -excess[best]
		v := best
		for prev[v] >= 0 {
			a := prev[v]
			if c := f.capacity(a); c < q {
				q = c
			}
			v = f.to[a^1]
		}
		if excess[v] < q {
			q = excess[v]
		}
		if q <= 0 {
			return fmt.Errorf("retime: zero augmentation")
		}
		v = best
		for prev[v] >= 0 {
			a := prev[v]
			f.push(a, q)
			v = f.to[a^1]
		}
		excess[v] -= q
		excess[best] += q
	}
}

// residualDistances returns shortest distances from a virtual source in
// the final residual network; -dist is an optimal dual solution.
func (f *flow) residualDistances() ([]int64, error) {
	dist := make([]int64, f.n) // virtual source: 0 to every node
	for iter := 0; iter < f.n; iter++ {
		changed := false
		for u := 0; u < f.n; u++ {
			for _, a := range f.head[u] {
				if f.capacity(a) <= 0 {
					continue
				}
				if d := dist[u] + f.cost[a]; d < dist[f.to[a]] {
					dist[f.to[a]] = d
					changed = true
				}
			}
		}
		if !changed {
			return dist, nil
		}
		if iter == f.n-1 {
			return nil, fmt.Errorf("retime: negative cycle in optimal residual")
		}
	}
	return dist, nil
}
