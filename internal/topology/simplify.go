package topology

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// This file implements the topology post-processing the Modeler performs
// before handing graphs to applications: pruning to the queried endpoints,
// collapsing degree-2 chains, and representing opaque switch clouds with a
// single virtual switch, as Sections 2.2 and 3.1.1 of the paper describe.

// Prune returns the subgraph induced by the union of shortest paths
// between every pair of the given endpoints. Nodes and links not on any
// such path are "unnecessary information" and dropped.
func (g *Graph) Prune(endpoints []string) (*Graph, error) {
	keepNode := make(map[string]bool)
	keepLink := make(map[*Link]bool)
	for i := 0; i < len(endpoints); i++ {
		for j := i + 1; j < len(endpoints); j++ {
			hops, err := g.pathHalfLinks(endpoints[i], endpoints[j])
			if err != nil {
				return nil, err
			}
			keepNode[endpoints[i]] = true
			for _, h := range hops {
				keepNode[h.peerID()] = true
				keepLink[h.link] = true
			}
		}
	}
	if len(endpoints) == 1 {
		if g.nodes[endpoints[0]] == nil {
			return nil, fmt.Errorf("topology: unknown endpoint %s", endpoints[0])
		}
		keepNode[endpoints[0]] = true
	}
	out := NewGraph()
	for id := range keepNode {
		out.AddNode(*g.nodes[id])
	}
	for _, l := range g.links {
		if keepLink[l] {
			out.AddLink(*l)
		}
	}
	return out, nil
}

// CollapseChains repeatedly removes interior switch/virtual nodes of
// degree exactly 2 (never nodes named in protect), splicing their two
// links into one: capacity is the bottleneck, per-direction availability
// is preserved exactly, latency is the sum. Hosts and routers are
// structurally meaningful and never collapsed.
func (g *Graph) CollapseChains(protect map[string]bool) {
	for {
		adj := g.adjacency()
		var victim *Node
		for _, n := range g.Nodes() {
			if protect[n.ID] || (n.Kind != SwitchNode && n.Kind != VirtualNode) {
				continue
			}
			hl := adj.of(n.ID)
			if len(hl) == 2 && hl[0].peerID() != n.ID && hl[1].peerID() != n.ID && hl[0].peerID() != hl[1].peerID() {
				victim = n
				break
			}
		}
		if victim == nil {
			return
		}
		hl := adj.of(victim.ID)
		a, b := hl[0], hl[1]
		// Orient each half-link outward from the victim: "toward peer"
		// and "from peer" utilizations.
		towardA, fromA := dirUtils(a)
		towardB, fromB := dirUtils(b)
		// The splice must preserve each direction's available
		// bandwidth exactly — that is the quantity flow queries
		// consume. A->B traffic crosses (peerA -> victim) then
		// (victim -> peerB); its availability is the minimum of the
		// two, expressed as utilization against the bottleneck
		// capacity.
		bottleneck := minf(a.link.Capacity, b.link.Capacity)
		availAB := minf(a.link.Capacity-fromA, b.link.Capacity-towardB)
		availBA := minf(b.link.Capacity-fromB, a.link.Capacity-towardA)
		merged := Link{
			From:       a.peerID(),
			To:         b.peerID(),
			Capacity:   bottleneck,
			UtilFromTo: maxf(0, bottleneck-clampNonNeg(availAB)),
			UtilToFrom: maxf(0, bottleneck-clampNonNeg(availBA)),
			Latency:    a.link.Latency + b.link.Latency,
			Jitter:     combineJitter(a.link.Jitter, b.link.Jitter),
		}
		g.removeNode(victim.ID)
		g.AddLink(merged)
	}
}

// dirUtils returns the utilization toward the half-link's peer and from
// the peer, given the half-link is held from the victim's side.
func dirUtils(h halfLink) (toward, from float64) {
	if h.fromA { // victim is link.From
		return h.link.UtilFromTo, h.link.UtilToFrom
	}
	return h.link.UtilToFrom, h.link.UtilFromTo
}

// CollapseSwitchClouds replaces every maximal connected component of
// switch nodes with a single virtual switch node carrying the component's
// external attachments. This is the "virtual switch" abstraction the paper
// uses for shared Ethernets and unreachable regions; interior structure is
// intentionally hidden. Returns the number of clouds collapsed.
func (g *Graph) CollapseSwitchClouds(prefix string) int {
	adj := g.adjacency()
	visited := make(map[string]bool)
	clouds := 0
	for _, n := range g.Nodes() {
		if n.Kind != SwitchNode || visited[n.ID] {
			continue
		}
		// Flood the switch component.
		var comp []string
		queue := []string{n.ID}
		visited[n.ID] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			comp = append(comp, cur)
			for _, h := range adj.of(cur) {
				p := h.peerID()
				if pn := g.nodes[p]; pn != nil && pn.Kind == SwitchNode && !visited[p] {
					visited[p] = true
					queue = append(queue, p)
				}
			}
		}
		if len(comp) < 2 {
			continue // a lone switch is already as simple as a virtual one
		}
		clouds++
		sort.Strings(comp)
		vid := fmt.Sprintf("%s%d", prefix, clouds)
		g.AddNode(Node{ID: vid, Kind: VirtualNode})
		inComp := make(map[string]bool, len(comp))
		for _, id := range comp {
			inComp[id] = true
		}
		// Re-home external links; drop interior ones.
		var kept []*Link
		for _, l := range g.links {
			fIn, tIn := inComp[l.From], inComp[l.To]
			switch {
			case fIn && tIn:
				continue // interior
			case fIn:
				l.From = vid
			case tIn:
				l.To = vid
			}
			kept = append(kept, l)
		}
		g.links = kept
		g.reindexLinks()
		for _, id := range comp {
			g.dropNode(id)
		}
		adj = g.adjacency()
	}
	return clouds
}

// removeNode deletes a node and every link touching it.
func (g *Graph) removeNode(id string) {
	g.dropNode(id)
	var kept []*Link
	for _, l := range g.links {
		if l.From != id && l.To != id {
			kept = append(kept, l)
		}
	}
	g.links = kept
	g.reindexLinks()
}

// combineJitter adds independent delay variations: root of summed
// squares.
func combineJitter(a, b time.Duration) time.Duration {
	as, bs := a.Seconds(), b.Seconds()
	return time.Duration(math.Sqrt(as*as+bs*bs) * float64(time.Second))
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
