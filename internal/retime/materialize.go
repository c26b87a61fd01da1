package retime

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// Materialize converts the graph back into a gate-level netlist,
// instantiating w flip-flops on every edge of weight w, and returns the
// LineMap tying every fault site of the new circuit to its graph edge.
//
// Gate and input names are preserved; flip-flops are freshly named
// r<edge>_<position>, so materializing the zero retiming of
// FromCircuit(c) yields a circuit identical to c up to DFF names and
// the removal of dangling flip-flops.
func (g *Graph) Materialize(name string) (*netlist.Circuit, *LineMap, error) {
	b := netlist.NewBuilder(name)
	for _, vi := range g.Inputs {
		b.Input(g.Verts[vi].Name)
	}

	// sigOf resolves the signal name at a vertex's output; for stems it
	// is the end of the DFF chain on the stem's single in-edge.
	var sigOf func(v int) string
	// chain materializes the DFF chain of edge e and returns the name of
	// its final signal. Each edge is processed at most once.
	chainEnd := make([]string, len(g.Edges))
	var chain func(e int) string
	type pendingSite struct {
		name string // node name ("" when pin addresses a named node directly)
		pin  int
		edge int
	}
	var pending []pendingSite
	addSite := func(nodeName string, pin, edge int) {
		pending = append(pending, pendingSite{nodeName, pin, edge})
	}
	sigOf = func(v int) string {
		vt := &g.Verts[v]
		switch vt.Kind {
		case VInput, VGate:
			return vt.Name
		case VStem:
			if len(g.In[v]) != 1 {
				panic(fmt.Sprintf("retime: stem %q has %d in-edges", vt.Name, len(g.In[v])))
			}
			return chain(g.In[v][0])
		}
		panic("retime: sigOf on output vertex")
	}
	chain = func(e int) string {
		if chainEnd[e] != "" {
			return chainEnd[e]
		}
		ed := &g.Edges[e]
		src := sigOf(ed.From)
		// The source's own stem site lies on this edge unless the source
		// is a stem vertex (then it belongs to the stem's in-edge, where
		// the chain call for that edge already recorded it).
		if k := g.Verts[ed.From].Kind; k == VGate || k == VInput {
			addSite(src, fault.StemPin, e)
		}
		prev := src
		for k := 1; k <= ed.W; k++ {
			d := fmt.Sprintf("r%d_%d", e, k)
			b.DFF(d, prev)
			addSite(d, 0, e)             // the DFF's input line
			addSite(d, fault.StemPin, e) // the DFF's output line
			prev = d
		}
		chainEnd[e] = prev
		return prev
	}

	for v := range g.Verts {
		vt := &g.Verts[v]
		if vt.Kind != VGate {
			continue
		}
		ins := g.In[v]
		fan := make([]string, len(ins))
		for _, e := range ins {
			pin := g.Edges[e].ToPin
			if pin < 0 || pin >= len(fan) || fan[pin] != "" {
				return nil, nil, fmt.Errorf("retime: gate %q has inconsistent pins", vt.Name)
			}
			fan[pin] = chain(e)
			addSite(vt.Name, pin, e)
		}
		b.Gate(vt.Name, vt.Op, fan...)
	}
	for _, ov := range g.Outputs {
		ins := g.In[ov]
		if len(ins) != 1 {
			return nil, nil, fmt.Errorf("retime: output vertex %q has %d drivers", g.Verts[ov].Name, len(ins))
		}
		b.Output(chain(ins[0]))
	}
	c, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	lm := &LineMap{
		EdgeOf:  make(map[fault.Site]int, len(pending)),
		SitesOf: make([][]fault.Site, len(g.Edges)),
	}
	for _, p := range pending {
		id := c.NodeID(p.name)
		if id < 0 {
			return nil, nil, fmt.Errorf("retime: line map references unknown node %q", p.name)
		}
		site := fault.Site{Node: id, Pin: p.pin}
		lm.EdgeOf[site] = p.edge
		lm.SitesOf[p.edge] = append(lm.SitesOf[p.edge], site)
	}
	return c, lm, nil
}
