// Package topology defines the virtual topology graph that Remos
// components exchange: collectors produce annotated graphs of the network
// regions they monitor, the Master Collector merges them, and the Modeler
// simplifies them and runs max-min flow calculations on them to answer
// application queries.
package topology

import (
	"fmt"
	"math"
	"sort"
	"time"

	"remos/internal/maxmin"
	"remos/internal/rerr"
)

// NodeKind classifies graph nodes.
type NodeKind int

// Node kinds. Virtual nodes stand for parts of the network the collectors
// cannot see inside: shared Ethernets, inaccessible routers, or the
// wide-area cloud between sites.
const (
	HostNode NodeKind = iota
	RouterNode
	SwitchNode
	VirtualNode
)

// String names the kind (used by the ASCII protocol).
func (k NodeKind) String() string {
	switch k {
	case HostNode:
		return "host"
	case RouterNode:
		return "router"
	case SwitchNode:
		return "switch"
	case VirtualNode:
		return "virtual"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// ParseNodeKind is the inverse of String.
func ParseNodeKind(s string) (NodeKind, error) {
	switch s {
	case "host":
		return HostNode, nil
	case "router":
		return RouterNode, nil
	case "switch":
		return SwitchNode, nil
	case "virtual":
		return VirtualNode, nil
	}
	return 0, fmt.Errorf("topology: unknown node kind %q", s)
}

// Node is one vertex of the virtual topology.
type Node struct {
	ID   string
	Kind NodeKind
	// Addr is the node's primary IP address in string form, empty for
	// switches and virtual nodes.
	Addr string
}

// Link is one undirected edge with per-direction utilization.
type Link struct {
	From, To string  // node IDs
	Capacity float64 // bits per second
	// UtilFromTo and UtilToFrom are the measured loads in bits per
	// second in each direction.
	UtilFromTo float64
	UtilToFrom float64
	Latency    time.Duration
	// Jitter is the standard deviation of the link's one-way delay.
	// SNMP-derived links carry none; benchmark collectors measure it —
	// the "network jitter" metric Section 6.2 lists as the next one
	// multimedia applications need.
	Jitter time.Duration
}

// AvailFromTo returns the available bandwidth From->To.
func (l *Link) AvailFromTo() float64 { return clampNonNeg(l.Capacity - l.UtilFromTo) }

// AvailToFrom returns the available bandwidth To->From.
func (l *Link) AvailToFrom() float64 { return clampNonNeg(l.Capacity - l.UtilToFrom) }

func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// Graph is a virtual topology.
type Graph struct {
	nodes map[string]*Node
	// byAddr finds the node carrying an address without scanning nodes;
	// AddNode maintains it, as does everything else that binds or drops a
	// node or rewrites a node's Addr.
	byAddr  map[string]*Node
	links   []*Link
	linkIdx map[[2]string]*Link // canonical (sorted) endpoint pair -> first link
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		nodes:   make(map[string]*Node),
		byAddr:  make(map[string]*Node),
		linkIdx: make(map[[2]string]*Link),
	}
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// AddNode inserts or replaces a node.
func (g *Graph) AddNode(n Node) *Node {
	cp := n
	g.dropNode(n.ID)
	g.nodes[n.ID] = &cp
	g.indexAddr(&cp)
	return &cp
}

func (g *Graph) indexAddr(n *Node) {
	if n.Addr != "" {
		g.byAddr[n.Addr] = n
	}
}

func (g *Graph) unindexAddr(n *Node) {
	if g.byAddr[n.Addr] == n {
		delete(g.byAddr, n.Addr)
	}
}

// dropNode unbinds a node ID and its address; links are the caller's
// business.
func (g *Graph) dropNode(id string) {
	if n := g.nodes[id]; n != nil {
		g.unindexAddr(n)
		delete(g.nodes, id)
	}
}

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id string) *Node { return g.nodes[id] }

// Nodes returns all nodes sorted by ID.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Links returns the graph's links (stable order of insertion).
func (g *Graph) Links() []*Link { return g.links }

// NodeByAddr returns the node with the given address, or nil.
func (g *Graph) NodeByAddr(addr string) *Node { return g.byAddr[addr] }

// AddLink inserts a link. Both endpoints must already exist.
func (g *Graph) AddLink(l Link) (*Link, error) {
	if g.nodes[l.From] == nil || g.nodes[l.To] == nil {
		return nil, fmt.Errorf("topology: link %s-%s references missing node", l.From, l.To)
	}
	cp := l
	g.links = append(g.links, &cp)
	if k := pairKey(l.From, l.To); g.linkIdx[k] == nil {
		g.linkIdx[k] = &cp
	}
	return &cp, nil
}

// FindLink returns the first link joining the two nodes in either
// orientation, or nil.
func (g *Graph) FindLink(a, b string) *Link {
	return g.linkIdx[pairKey(a, b)]
}

// reindexLinks rebuilds the link index after bulk link mutation.
func (g *Graph) reindexLinks() {
	g.linkIdx = make(map[[2]string]*Link, len(g.links))
	for _, l := range g.links {
		if k := pairKey(l.From, l.To); g.linkIdx[k] == nil {
			g.linkIdx[k] = l
		}
	}
}

// Merge folds other into g: nodes are united by ID (other's attributes win
// for duplicates only where g's are empty) and duplicate links (same
// unordered endpoints) keep the larger utilization readings — collectors
// measuring the same physical link may report at different instants.
func (g *Graph) Merge(other *Graph) {
	for _, n := range other.Nodes() {
		if exist := g.nodes[n.ID]; exist != nil {
			if exist.Addr == "" {
				exist.Addr = n.Addr
				g.indexAddr(exist)
			}
			continue
		}
		g.AddNode(*n)
	}
	for _, l := range other.links {
		if exist := g.FindLink(l.From, l.To); exist != nil {
			a, b := l.UtilFromTo, l.UtilToFrom
			if exist.From != l.From {
				a, b = b, a
			}
			if a > exist.UtilFromTo {
				exist.UtilFromTo = a
			}
			if b > exist.UtilToFrom {
				exist.UtilToFrom = b
			}
			continue
		}
		g.AddLink(*l)
	}
}

// Update folds a fresher partial measurement into g: nodes are united by
// ID with other's attributes winning, and duplicate links take other's
// readings outright. Where Merge resolves concurrent measurements of the
// same link by keeping the larger utilization, Update is for snapshot
// maintenance — other is a newer poll of the same region, so latest wins.
func (g *Graph) Update(other *Graph) {
	for _, n := range other.nodes {
		if exist := g.nodes[n.ID]; exist != nil {
			exist.Kind = n.Kind
			if n.Addr != "" && n.Addr != exist.Addr {
				g.unindexAddr(exist)
				exist.Addr = n.Addr
				g.indexAddr(exist)
			}
			continue
		}
		g.AddNode(*n)
	}
	for _, l := range other.links {
		if exist := g.FindLink(l.From, l.To); exist != nil {
			a, b := l.UtilFromTo, l.UtilToFrom
			if exist.From != l.From {
				a, b = b, a
			}
			exist.UtilFromTo = a
			exist.UtilToFrom = b
			exist.Capacity = l.Capacity
			exist.Latency = l.Latency
			exist.Jitter = l.Jitter
			continue
		}
		g.AddLink(*l)
	}
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	// Copies sit on the warm-query serving path (every cache hit clones),
	// so nodes and links are copied into two slabs and presized maps:
	// five allocations total instead of one per node and link.
	out := &Graph{
		nodes:   make(map[string]*Node, len(g.nodes)),
		byAddr:  make(map[string]*Node, len(g.byAddr)),
		linkIdx: make(map[[2]string]*Link, len(g.linkIdx)),
	}
	nodeSlab := make([]Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		nodeSlab = append(nodeSlab, *n)
		cp := &nodeSlab[len(nodeSlab)-1]
		out.nodes[n.ID] = cp
		if g.byAddr[n.Addr] == n {
			out.byAddr[n.Addr] = cp
		}
	}
	if len(g.links) > 0 {
		linkSlab := make([]Link, 0, len(g.links))
		out.links = make([]*Link, 0, len(g.links))
		for _, l := range g.links {
			linkSlab = append(linkSlab, *l)
			cp := &linkSlab[len(linkSlab)-1]
			out.links = append(out.links, cp)
			k := pairKey(l.From, l.To)
			if _, ok := out.linkIdx[k]; !ok {
				out.linkIdx[k] = cp // first link wins, as AddLink does
			}
		}
	}
	return out
}

// neighbors builds an adjacency list. Each entry carries the link and
// whether the node is the From endpoint.
type halfLink struct {
	link  *Link
	fromA bool // true when traversing From->To
}

func (h halfLink) peer() string {
	if h.fromA {
		return h.link.To
	}
	return h.link.From
}

func (g *Graph) adjacency() map[string][]halfLink {
	adj := make(map[string][]halfLink, len(g.nodes))
	for _, l := range g.links {
		adj[l.From] = append(adj[l.From], halfLink{link: l, fromA: true})
		adj[l.To] = append(adj[l.To], halfLink{link: l, fromA: false})
	}
	// Canonical neighbor order: BFS tie-breaking must depend on the
	// graph's content, not on link insertion history, so that two graphs
	// with the same nodes and links route identically no matter how they
	// were assembled (a federated stitch of per-domain subgraphs arrives
	// in a different link order than a single-master walk). Sort each
	// node's neighbors by peer ID; parallel links between the same pair
	// keep their relative insertion order.
	for _, hs := range adj {
		sort.SliceStable(hs, func(i, j int) bool { return hs[i].peer() < hs[j].peer() })
	}
	return adj
}

// Path returns the node IDs of a shortest (hop-count) path between two
// nodes, inclusive, or an error if none exists.
func (g *Graph) Path(from, to string) ([]string, error) {
	hops, err := g.pathHalfLinks(from, to)
	if err != nil {
		return nil, err
	}
	out := []string{from}
	for _, h := range hops {
		out = append(out, h.peer())
	}
	return out, nil
}

func (g *Graph) pathHalfLinks(from, to string) ([]halfLink, error) {
	if g.nodes[from] == nil || g.nodes[to] == nil {
		return nil, fmt.Errorf("topology: path endpoints %s,%s not both present", from, to)
	}
	if from == to {
		return nil, nil
	}
	adj := g.adjacency()
	type state struct {
		id   string
		prev *state
		via  halfLink
	}
	visited := map[string]bool{from: true}
	queue := []*state{{id: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, h := range adj[cur.id] {
			peer := h.peer()
			if visited[peer] {
				continue
			}
			visited[peer] = true
			st := &state{id: peer, prev: cur, via: h}
			if peer == to {
				var rev []halfLink
				for s := st; s.prev != nil; s = s.prev {
					rev = append(rev, s.via)
				}
				out := make([]halfLink, len(rev))
				for i := range rev {
					out[i] = rev[len(rev)-1-i]
				}
				return out, nil
			}
			queue = append(queue, st)
		}
	}
	return nil, rerr.Tagf(rerr.ErrNoRoute, "topology: no path from %s to %s", from, to)
}

// BottleneckAvail returns the path and its bottleneck available bandwidth
// between two nodes: the minimum per-direction available bandwidth along
// a shortest path. This is the sharing-oblivious baseline; FlowAlloc is
// the max-min answer for concurrent requested flows.
func (g *Graph) BottleneckAvail(from, to string) (bw float64, path []string, err error) {
	hops, err := g.pathHalfLinks(from, to)
	if err != nil {
		return 0, nil, err
	}
	bw = -1
	path = []string{from}
	for _, h := range hops {
		avail := h.link.AvailFromTo()
		if !h.fromA {
			avail = h.link.AvailToFrom()
		}
		if bw < 0 || avail < bw {
			bw = avail
		}
		path = append(path, h.peer())
	}
	if bw < 0 {
		bw = 0
	}
	return bw, path, nil
}

// FlowRequest names one flow an application intends to create.
type FlowRequest struct {
	Src, Dst string  // node IDs
	Demand   float64 // bits per second the application wants; 0 = as much as possible
}

// FlowPrediction is the answer for one requested flow.
type FlowPrediction struct {
	Request   FlowRequest
	Available float64 // max-min fair bandwidth the new flow can expect
	Latency   time.Duration
	// Jitter is the path's delay variation (per-link jitters combine as
	// the root of summed squares).
	Jitter time.Duration
	Path   []string
}

// FlowAlloc answers a flow query: given the residual (available) capacity
// of every link and the set of flows the application wants to create
// simultaneously, it computes each flow's max-min fair share. This is the
// Modeler's flow calculation from Section 3.2.
func (g *Graph) FlowAlloc(reqs []FlowRequest) ([]FlowPrediction, error) {
	// Directed capacity vector: 2 entries per link.
	caps := make([]float64, len(g.links)*2)
	index := make(map[*Link]int, len(g.links))
	for i, l := range g.links {
		index[l] = i
		caps[i*2] = l.AvailFromTo()
		caps[i*2+1] = l.AvailToFrom()
	}
	preds := make([]FlowPrediction, len(reqs))
	flows := make([]maxmin.Flow, len(reqs))
	for i, rq := range reqs {
		hops, err := g.pathHalfLinks(rq.Src, rq.Dst)
		if err != nil {
			return nil, err
		}
		links := make([]int, len(hops))
		var lat time.Duration
		var jitterVar float64
		path := []string{rq.Src}
		for j, h := range hops {
			li := index[h.link] * 2
			if !h.fromA {
				li++
			}
			links[j] = li
			lat += h.link.Latency
			js := h.link.Jitter.Seconds()
			jitterVar += js * js
			path = append(path, h.peer())
		}
		flows[i] = maxmin.Flow{Links: links, Demand: rq.Demand}
		preds[i] = FlowPrediction{
			Request: rq, Latency: lat, Path: path,
			Jitter: time.Duration(math.Sqrt(jitterVar) * float64(time.Second)),
		}
	}
	rates, err := maxmin.Allocate(caps, flows)
	if err != nil {
		return nil, err
	}
	for i := range preds {
		preds[i].Available = rates[i]
	}
	return preds, nil
}
