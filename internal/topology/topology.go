// Package topology defines the virtual topology graph that Remos
// components exchange: collectors produce annotated graphs of the network
// regions they monitor, the Master Collector merges them, and the Modeler
// simplifies them and runs max-min flow calculations on them to answer
// application queries.
package topology

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"remos/internal/maxmin"
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

// kindNames are the kinds' names in the wire protocols, by kind.
var kindNames = [...]string{HostNode: "host", RouterNode: "router", SwitchNode: "switch", VirtualNode: "virtual"}

// String names the kind (used by the ASCII protocol).
func (k NodeKind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// ParseNodeKind is the inverse of String.
func ParseNodeKind(s string) (NodeKind, error) {
	if k, ok := parseKind([]byte(s)); ok {
		return k, nil
	}
	return 0, fmt.Errorf("topology: unknown node kind %q", s)
}

// parseKind is ParseNodeKind on bytes scanned in place.
func parseKind(b []byte) (NodeKind, bool) {
	for k, name := range kindNames {
		if string(b) == name {
			return NodeKind(k), true
		}
	}
	return 0, false
}

// Node is one vertex of the virtual topology.
type Node struct {
	ID   string
	Kind NodeKind
	// Addr is the node's primary IP address in string form, empty for
	// switches and virtual nodes.
	Addr string
}

// Link is one undirected edge with per-direction utilization. Its
// measurements may be written through the graph's pointers until a
// PathIndex is built over the graph, which reads them once; its endpoints
// are the graph's structure, which only the graph's own mutators rewrite.
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
func (l *Link) AvailFromTo() float64 { return availBits(l.Capacity, l.UtilFromTo) }

// AvailToFrom returns the available bandwidth To->From.
func (l *Link) AvailToFrom() float64 { return availBits(l.Capacity, l.UtilToFrom) }

// availBits is capacity less utilization, floored at 0. A utilization that
// is not finite, or a difference that is not a number, leaves nothing
// available: a NaN or -Inf load read off the wire must not answer +Inf.
func availBits(capacity, util float64) float64 {
	v := capacity - util
	if math.IsInf(util, 0) || math.IsNaN(v) || v < 0 {
		return 0
	}
	return v
}

func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// Graph is a virtual topology. Like a map, it may be read from several
// goroutines at once but not while one of them mutates it; Clone counts as
// a read.
type Graph struct {
	// nodes, byAddr and linkIdx are the graph's structure. A Clone shares
	// them, and the nodes they point to, with its original; only the links
	// are copied. shared is the marker both then carry: set by Clone on
	// each, it makes every structural mutator take a private copy first
	// (own), so a graph never writes structure another graph reads.
	nodes map[string]*Node
	// byAddr finds the node carrying an address without scanning nodes;
	// AddNode maintains it, as does everything else that binds or drops a
	// node or rewrites a node's Addr.
	byAddr  map[string]*Node
	links   []*Link
	linkIdx map[[2]string]int32 // canonical (sorted) endpoint pair -> index of the first link
	shared  atomic.Bool
	// nodeSlab and linkSlab are where AddNode and AddLink put their
	// copies: chunks that double up to slabMax, so building a graph costs
	// a handful of allocations, not one per node and link. A chunk lives
	// as long as anything in it is referenced.
	nodeSlab []Node
	linkSlab []Link
	// shape memoizes the graph's routing structure (routing): built by
	// the first routing request after a change, read by every one until
	// the next, and handed to a Clone, whose links are this graph's in
	// the same order. Everything that binds or drops a node or a link, or
	// rewrites a link's endpoints, drops it (invalidate).
	shape atomic.Pointer[shape]
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return Assemble(nil, nil) }

// Assemble returns the graph of nodes and links, taking both slices as its
// slabs and making each table once, at its exact size. A node repeating an
// earlier node's ID replaces it, and parallel links are all kept, the first
// indexed, as AddNode and AddLink have it. Links must join the nodes' IDs.
func Assemble(nodes []Node, links []Link) *Graph {
	g := assembleNodes(nodes)
	g.assembleLinks(links)
	return g
}

// assembleNodes is Assemble's first half: a graph of the nodes alone.
func assembleNodes(nodes []Node) *Graph {
	g := &Graph{nodeSlab: nodes, nodes: make(map[string]*Node, len(nodes))}
	g.byAddr = make(map[string]*Node, len(nodes))
	for i := range nodes {
		n := &nodes[i]
		if old := g.nodes[n.ID]; old != nil {
			g.unindexAddr(old)
		}
		g.nodes[n.ID] = n
		g.indexAddr(n)
	}
	return g
}

// assembleLinks is Assemble's second half: it gives a graph its links.
func (g *Graph) assembleLinks(links []Link) {
	g.linkSlab = links
	g.links = make([]*Link, len(links))
	for i := range links {
		g.links[i] = &links[i]
	}
	g.indexLinks()
}

// slabMin and slabMax bound the chunks AddNode and AddLink carve from.
const (
	slabMin = 8
	slabMax = 256
)

// reserve returns a slab the next n carves take from one chunk of.
func reserve[T any](slab []T, n int) []T {
	if cap(slab)-len(slab) < n {
		return make([]T, 0, n)
	}
	return slab
}

// carve returns room for one more element of a slab, starting a chunk
// twice the size of the last when that one is full.
func carve[T any](slab []T) []T {
	if len(slab) < cap(slab) {
		return slab[:len(slab)+1]
	}
	return make([]T, 1, min(max(2*cap(slab), slabMin), slabMax))
}

// invalidate drops what is memoized about the graph's structure.
func (g *Graph) invalidate() { g.shape.Store(nil) }

// own gives g a structure of its own before it writes one: if a Clone
// shares g's nodes and indexes, g copies them, nodes included, and drops
// its marker. The copy leaves the shape unchanged, so what is memoized
// stays.
func (g *Graph) own() {
	if !g.shared.Load() {
		return
	}
	nodes := make(map[string]*Node, len(g.nodes))
	byAddr := make(map[string]*Node, len(g.byAddr))
	slab := make([]Node, 0, len(g.nodes))
	for id, n := range g.nodes {
		slab = append(slab, *n)
		cp := &slab[len(slab)-1]
		nodes[id] = cp
		if g.byAddr[n.Addr] == n {
			byAddr[n.Addr] = cp
		}
	}
	g.nodes, g.byAddr, g.nodeSlab = nodes, byAddr, slab
	g.linkIdx = maps.Clone(g.linkIdx)
	g.shared.Store(false)
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// AddNode inserts or replaces a node.
func (g *Graph) AddNode(n Node) *Node {
	g.own()
	g.nodeSlab = carve(g.nodeSlab)
	cp := &g.nodeSlab[len(g.nodeSlab)-1]
	*cp = n
	g.dropNode(n.ID)
	g.nodes[n.ID] = cp
	g.indexAddr(cp)
	g.invalidate()
	return cp
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
	if g.nodes[id] != nil {
		g.own()
		g.unindexAddr(g.nodes[id])
		delete(g.nodes, id)
		g.invalidate()
	}
}

// Node returns the node with the given ID, or nil. The node may be shared
// with the graph's clones: it must not be written.
func (g *Graph) Node(id string) *Node { return g.nodes[id] }

// Nodes returns all nodes sorted by ID. Like Node's, they must not be
// written.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	slices.SortFunc(out, func(a, b *Node) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// Links returns the graph's links (stable order of insertion).
func (g *Graph) Links() []*Link { return g.links }

// NodeByAddr returns the node with the given address, or nil. Like Node's,
// it must not be written.
func (g *Graph) NodeByAddr(addr string) *Node { return g.byAddr[addr] }

// AddLink inserts a link. Both endpoints must already exist.
func (g *Graph) AddLink(l Link) (*Link, error) {
	if g.nodes[l.From] == nil || g.nodes[l.To] == nil {
		return nil, fmt.Errorf("topology: link %s-%s references missing node", l.From, l.To)
	}
	g.own()
	g.linkSlab = carve(g.linkSlab)
	cp := &g.linkSlab[len(g.linkSlab)-1]
	*cp = l
	k := pairKey(l.From, l.To)
	if _, ok := g.linkIdx[k]; !ok {
		g.linkIdx[k] = int32(len(g.links))
	}
	g.links = append(g.links, cp)
	g.invalidate()
	return cp, nil
}

// HasParallelLinks reports whether two of the graph's links join the same
// pair of nodes, which Merge would fold into one.
func (g *Graph) HasParallelLinks() bool { return len(g.linkIdx) != len(g.links) }

// FindLink returns the first link joining the two nodes in either
// orientation, or nil.
func (g *Graph) FindLink(a, b string) *Link {
	if i, ok := g.linkIdx[pairKey(a, b)]; ok {
		return g.links[i]
	}
	return nil
}

// reindexLinks rebuilds the link index after bulk link mutation.
func (g *Graph) reindexLinks() {
	g.own()
	g.invalidate()
	g.indexLinks()
}

// indexLinks makes the link index anew, from the last link back: the first
// of parallel links is the one it keeps.
func (g *Graph) indexLinks() {
	g.linkIdx = make(map[[2]string]int32, len(g.links))
	for i := len(g.links) - 1; i >= 0; i-- {
		g.linkIdx[pairKey(g.links[i].From, g.links[i].To)] = int32(i)
	}
}

// Merge folds other into g: nodes are united by ID (other's attributes win
// for duplicates only where g's are empty) and duplicate links (same
// unordered endpoints) keep the larger utilization readings — collectors
// measuring the same physical link may report at different instants. An
// address other binds to one of its nodes (NodeByAddr) comes out bound to
// that node's counterpart in g, so the result does not depend on the
// order the nodes are visited in.
func (g *Graph) Merge(other *Graph) {
	g.own()
	fresh := 0
	for id := range other.nodes {
		if g.nodes[id] == nil {
			fresh++
		}
	}
	g.nodeSlab = reserve(g.nodeSlab, fresh)
	for _, n := range other.nodes {
		into := g.nodes[n.ID]
		switch {
		case into == nil:
			// Added without its address: whether the address binds to
			// it is other's to say, below.
			into = g.AddNode(Node{ID: n.ID, Kind: n.Kind})
			into.Addr = n.Addr
		case into.Addr == "":
			into.Addr = n.Addr
		default:
			continue
		}
		if n.Addr != "" && other.byAddr[n.Addr] == n {
			g.byAddr[n.Addr] = into
		}
	}
	for i, l := range other.links {
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
		g.linkSlab = reserve(g.linkSlab, len(other.links)-i) // one chunk for all that are new; a no-op after the first
		g.AddLink(*l)                                        // both endpoints were just united
	}
}

// Update folds a fresher partial measurement into g: nodes are united by
// ID with other's attributes winning, and duplicate links take other's
// readings outright. Where Merge resolves concurrent measurements of the
// same link by keeping the larger utilization, Update is for snapshot
// maintenance — other is a newer poll of the same region, so latest wins.
// A node is written only where other changes it, so a poll that moved
// measurements only leaves the structure shared with g's clones.
//
// A host other links to a peer g did not link it to has moved: every
// link of g at that host that other lacks is dropped, so the host leaves
// its old attachment. Into a graph without links nothing has moved.
func (g *Graph) Update(other *Graph) {
	var moved map[string]bool
	rehome := len(g.links) > 0
	for _, n := range other.nodes {
		exist := g.nodes[n.ID]
		if exist == nil {
			g.AddNode(*n)
			continue
		}
		newAddr := n.Addr != "" && n.Addr != exist.Addr
		if exist.Kind == n.Kind && !newAddr {
			continue
		}
		g.own()
		exist = g.nodes[n.ID]
		exist.Kind = n.Kind
		if newAddr {
			g.unindexAddr(exist)
			exist.Addr = n.Addr
			g.indexAddr(exist)
		}
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
		if !rehome {
			continue
		}
		for _, id := range [2]string{l.From, l.To} {
			if other.nodes[id].Kind == HostNode {
				if moved == nil {
					moved = make(map[string]bool)
				}
				moved[id] = true
			}
		}
	}
	if len(moved) == 0 {
		return
	}
	g.links = slices.DeleteFunc(g.links, func(l *Link) bool {
		return (moved[l.From] || moved[l.To]) && other.FindLink(l.From, l.To) == nil
	})
	g.reindexLinks()
}

// Clone returns a copy whose links may be written and whose structure may
// be mutated without touching g. Copies sit on serving paths (snapshot
// generations, QUERY answers, predictions), so only the links are copied,
// into one slab: the structure is shared until one side mutates it (own),
// and so is the memoized shape, whose link numbers are positions in the
// copy's links as much as in g's.
func (g *Graph) Clone() *Graph {
	g.shared.Store(true)
	out := &Graph{nodes: g.nodes, byAddr: g.byAddr, linkIdx: g.linkIdx}
	out.shared.Store(true)
	out.shape.Store(g.shape.Load())
	if len(g.links) > 0 {
		out.linkSlab = make([]Link, len(g.links))
		out.links = make([]*Link, len(g.links))
		for i, l := range g.links {
			out.linkSlab[i] = *l
			out.links[i] = &out.linkSlab[i]
		}
	}
	return out
}

// routing returns the memoized shape, building it if a mutation dropped
// it. Racing builders share the first shape stored.
func (g *Graph) routing() *shape {
	if sh := g.shape.Load(); sh != nil {
		return sh
	}
	g.shape.CompareAndSwap(nil, newShape(g))
	return g.shape.Load()
}

// Path returns the node IDs of a shortest (hop-count) path between two
// nodes, inclusive, or an error if none exists.
func (g *Graph) Path(from, to string) ([]string, error) {
	sh := g.routing()
	hops, err := sh.search(from, to)
	if err != nil {
		return nil, err
	}
	return sh.nodePath(make([]string, 0, len(hops)+1), from, hops), nil
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
// Modeler's flow calculation from Section 3.2, whole-graph: every served
// flow answer is PathIndex's, and this is the reference it is held to.
func (g *Graph) FlowAlloc(reqs []FlowRequest) ([]FlowPrediction, error) {
	sh := g.routing()
	// Directed capacity vector, indexed by hop: caps[2i] is link i
	// From->To, caps[2i+1] To->From.
	caps := make([]float64, len(g.links)*2)
	for i, l := range g.links {
		caps[i*2] = l.AvailFromTo()
		caps[i*2+1] = l.AvailToFrom()
	}
	preds := make([]FlowPrediction, len(reqs))
	flows := make([]maxmin.Flow, len(reqs))
	for i, rq := range reqs {
		hops, err := sh.search(rq.Src, rq.Dst)
		if err != nil {
			return nil, err
		}
		links := make([]int, len(hops))
		var lat time.Duration
		var jitterVar float64
		for j, h := range hops {
			links[j] = int(h)
			l := g.links[h>>1]
			lat += l.Latency
			js := l.Jitter.Seconds()
			jitterVar += js * js
		}
		flows[i] = maxmin.Flow{Links: links, Demand: rq.Demand}
		preds[i] = FlowPrediction{
			Request: rq, Latency: lat, Path: sh.nodePath(make([]string, 0, len(hops)+1), rq.Src, hops),
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
