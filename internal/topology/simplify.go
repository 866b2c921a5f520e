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
	sh := g.routing()
	keepNode := make([]bool, len(sh.ids))
	keepLink := make([]bool, len(g.links))
	for i := 0; i < len(endpoints); i++ {
		for j := i + 1; j < len(endpoints); j++ {
			hops, err := sh.search(endpoints[i], endpoints[j])
			if err != nil {
				return nil, err
			}
			keepNode[sh.num[endpoints[i]]] = true
			for _, h := range hops {
				keepNode[sh.head(h)] = true
				keepLink[h>>1] = true
			}
		}
	}
	if len(endpoints) == 1 {
		v, ok := sh.num[endpoints[0]]
		if !ok {
			return nil, fmt.Errorf("topology: unknown endpoint %s", endpoints[0])
		}
		keepNode[v] = true
	}
	out := NewGraph()
	for v, keep := range keepNode {
		if keep {
			out.AddNode(*g.Node(sh.ids[v]))
		}
	}
	for i, l := range g.links {
		if keepLink[i] {
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
		sh := g.routing()
		victim := NoNode
		for v, id := range sh.ids {
			if n := g.Node(id); protect[id] || (n.Kind != SwitchNode && n.Kind != VirtualNode) {
				continue
			}
			if at := sh.off[v]; sh.off[v+1]-at == 2 {
				if a, b := sh.peers[at], sh.peers[at+1]; a != int32(v) && b != int32(v) && a != b {
					victim = int32(v)
					break
				}
			}
		}
		if victim == NoNode {
			return
		}
		a, b := sh.hops[sh.off[victim]], sh.hops[sh.off[victim]+1]
		la, lb := g.links[a>>1], g.links[b>>1]
		// Orient each hop outward from the victim: "toward peer" and
		// "from peer" utilizations.
		towardA, fromA := dirUtils(la, a)
		towardB, fromB := dirUtils(lb, b)
		// The splice must preserve each direction's available
		// bandwidth exactly — that is the quantity flow queries
		// consume. A->B traffic crosses (peerA -> victim) then
		// (victim -> peerB); its availability is the minimum of the
		// two, expressed as utilization against the bottleneck
		// capacity.
		bottleneck := minf(la.Capacity, lb.Capacity)
		availAB := minf(la.Capacity-fromA, lb.Capacity-towardB)
		availBA := minf(lb.Capacity-fromB, la.Capacity-towardA)
		merged := Link{
			From:       sh.ids[sh.head(a)],
			To:         sh.ids[sh.head(b)],
			Capacity:   bottleneck,
			UtilFromTo: maxf(0, bottleneck-clampNonNeg(availAB)),
			UtilToFrom: maxf(0, bottleneck-clampNonNeg(availBA)),
			Latency:    la.Latency + lb.Latency,
			Jitter:     combineJitter(la.Jitter, lb.Jitter),
		}
		g.removeNode(sh.ids[victim])
		g.AddLink(merged)
	}
}

// dirUtils returns the utilization toward the hop's peer and from the
// peer, given the hop leaves the victim over l.
func dirUtils(l *Link, h hop) (toward, from float64) {
	if h&1 == 0 { // victim is l.From
		return l.UtilFromTo, l.UtilToFrom
	}
	return l.UtilToFrom, l.UtilFromTo
}

// CollapseSwitchClouds replaces every maximal connected component of
// switch nodes with a single virtual switch node carrying the component's
// external attachments. This is the "virtual switch" abstraction the paper
// uses for shared Ethernets and unreachable regions; interior structure is
// intentionally hidden. Returns the number of clouds collapsed.
func (g *Graph) CollapseSwitchClouds(prefix string) int {
	sh := g.routing()
	visited := make(map[string]bool)
	clouds := 0
	for _, n := range g.Nodes() {
		if n.Kind != SwitchNode || visited[n.ID] {
			continue
		}
		// Flood the switch component.
		var comp []string
		queue := []int32{sh.num[n.ID]}
		visited[n.ID] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			comp = append(comp, sh.ids[cur])
			for _, p := range sh.peers[sh.off[cur]:sh.off[cur+1]] {
				id := sh.ids[p]
				if pn := g.Node(id); pn != nil && pn.Kind == SwitchNode && !visited[id] {
					visited[id] = true
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
		g.invalidate()
		for _, id := range comp {
			g.dropNode(id)
		}
		sh = g.routing()
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
	g.invalidate()
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
