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
	"sync"
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
	// nodeSlab and linkSlab are where the graph's nodes and links live:
	// the slices Assemble was given, or chunks that AddNode and AddLink
	// carve from, doubling up to slabMax, so building a graph costs a
	// handful of allocations, not one per node and link. A chunk lives as
	// long as anything in it is referenced.
	nodeSlab []Node
	linkSlab []Link
	links    []*Link
	// nodes, byAddr and linkIdx are the graph's lookup tables, each a memo
	// built from the slabs by its first reader (table): a graph that
	// never mutates, such as an answer assembled, encoded and decoded,
	// builds only the ones it is asked through. Every structural mutator
	// builds all three first (own) and keeps them, so a table that is
	// missing means the slabs are the whole truth. A Clone shares the
	// node slab and the tables built so far, and the nodes they point
	// to; only the links are copied. shared is the marker both then
	// carry: set by Clone on each, it makes every structural mutator take
	// a private copy first (own), so a graph never writes structure
	// another graph reads.
	nodes   table[map[string]*Node]
	byAddr  table[map[string]*Node]    // address -> the node carrying it
	linkIdx table[map[[2]string]int32] // canonical (sorted) endpoint pair -> index of the first link
	shared  atomic.Bool
	// shape memoizes the graph's routing structure (routing): built by
	// the first routing request after a change, read by every one until
	// the next, and handed to a Clone, whose links are this graph's in
	// the same order. Everything that binds or drops a node or a link, or
	// rewrites a link's endpoints, drops it (invalidate).
	shape atomic.Pointer[shape]
}

// table is one of a graph's lookup tables: nil until its first reader
// builds it, racing builders sharing the first one stored, as routing
// shares the shape. It holds a map, which an atomic.Value stores without
// allocating.
type table[M any] struct{ v atomic.Value }

// load returns the table, nil if no reader has built it.
func (t *table[M]) load() M {
	m, _ := t.v.Load().(M)
	return m
}

// get returns the table, building it from g first if no reader has.
func (t *table[M]) get(g *Graph, build func(*Graph) M) M {
	if m, ok := t.v.Load().(M); ok {
		return m
	}
	t.v.CompareAndSwap(nil, build(g))
	return t.v.Load().(M)
}

// shareWith hands the table, if built, to another graph's.
func (t *table[M]) shareWith(to *table[M]) {
	if m, ok := t.v.Load().(M); ok {
		to.v.Store(m)
	}
}

func (g *Graph) nodeTable() map[string]*Node    { return g.nodes.get(g, indexNodes) }
func (g *Graph) addrTable() map[string]*Node    { return g.byAddr.get(g, indexAddrs) }
func (g *Graph) linkTable() map[[2]string]int32 { return g.linkIdx.get(g, indexLinks) }

// indexNodes makes the node table from the node slab: a node repeating an
// earlier node's ID replaces it.
func indexNodes(g *Graph) map[string]*Node {
	m := make(map[string]*Node, len(g.nodeSlab))
	for i := range g.nodeSlab {
		m[g.nodeSlab[i].ID] = &g.nodeSlab[i]
	}
	return m
}

// indexAddrs makes the address table from the node slab, binding each
// node's address in turn as AddNode would: a node takes its address from
// any earlier carrier, and a node replaced by a later one of its ID
// unbinds the address it still holds. Only a slab where an ID repeats,
// which the node table tells, needs each ID's node so far for the latter.
func indexAddrs(g *Graph) map[string]*Node {
	m := make(map[string]*Node, len(g.nodeSlab))
	var bound map[string]*Node
	if len(g.nodeTable()) != len(g.nodeSlab) {
		bound = make(map[string]*Node, len(g.nodeSlab))
	}
	for i := range g.nodeSlab {
		n := &g.nodeSlab[i]
		if bound != nil {
			if old := bound[n.ID]; old != nil && m[old.Addr] == old {
				delete(m, old.Addr)
			}
			bound[n.ID] = n
		}
		if n.Addr != "" {
			m[n.Addr] = n
		}
	}
	return m
}

// indexLinks makes the link table from the last link back: the first of
// parallel links is the one it keeps.
func indexLinks(g *Graph) map[[2]string]int32 {
	m := make(map[[2]string]int32, len(g.links))
	for i := len(g.links) - 1; i >= 0; i-- {
		m[pairKey(g.links[i].From, g.links[i].To)] = int32(i)
	}
	return m
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return Assemble(nil, nil) }

// Assemble returns the graph of nodes and links, taking both slices as its
// slabs and building no table: its first reader builds the one it asks
// through. A node repeating an earlier node's ID replaces it, and parallel
// links are all kept, the first indexed, as AddNode and AddLink have it.
// Links must join the nodes' IDs.
func Assemble(nodes []Node, links []Link) *Graph {
	g := &Graph{nodeSlab: nodes}
	g.assembleLinks(links)
	return g
}

// assembleLinks gives a graph its links.
func (g *Graph) assembleLinks(links []Link) {
	g.linkSlab = links
	g.links = make([]*Link, len(links))
	for i := range links {
		g.links[i] = &links[i]
	}
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

// own gives g a structure of its own before it writes one: it builds
// every table a reader has not, and if a Clone shares g's nodes and
// tables, g copies them, nodes included, and drops its marker. The copy
// leaves the shape unchanged, so what is memoized stays.
func (g *Graph) own() {
	nodes, byAddr, linkIdx := g.nodeTable(), g.addrTable(), g.linkTable()
	if !g.shared.Load() {
		return
	}
	ownNodes := make(map[string]*Node, len(nodes))
	ownAddrs := make(map[string]*Node, len(byAddr))
	slab := make([]Node, 0, len(nodes))
	for id, n := range nodes {
		slab = append(slab, *n)
		cp := &slab[len(slab)-1]
		ownNodes[id] = cp
		if byAddr[n.Addr] == n {
			ownAddrs[n.Addr] = cp
		}
	}
	g.nodes.v.Store(ownNodes)
	g.byAddr.v.Store(ownAddrs)
	g.linkIdx.v.Store(maps.Clone(linkIdx))
	g.nodeSlab = slab
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
	g.nodeTable()[n.ID] = cp
	g.indexAddr(cp)
	g.invalidate()
	return cp
}

func (g *Graph) indexAddr(n *Node) {
	if n.Addr != "" {
		g.addrTable()[n.Addr] = n
	}
}

func (g *Graph) unindexAddr(n *Node) {
	if byAddr := g.addrTable(); byAddr[n.Addr] == n {
		delete(byAddr, n.Addr)
	}
}

// dropNode unbinds a node ID and its address; links are the caller's
// business.
func (g *Graph) dropNode(id string) {
	if g.Node(id) != nil {
		g.own()
		g.unindexAddr(g.Node(id))
		delete(g.nodeTable(), id)
		g.invalidate()
	}
}

// Node returns the node with the given ID, or nil. The node may be shared
// with the graph's clones: it must not be written.
func (g *Graph) Node(id string) *Node { return g.nodeTable()[id] }

// Nodes returns all nodes sorted by ID. Like Node's, they must not be
// written.
func (g *Graph) Nodes() []*Node {
	n := len(g.nodeSlab)
	if nodes := g.nodes.load(); nodes != nil {
		n = len(nodes)
	}
	return g.appendNodes(make([]*Node, 0, n))
}

// appendNodes appends the graph's nodes to dst sorted by ID. A graph with
// no node table reads them off its slab, keeping the last node of an ID
// that repeats.
func (g *Graph) appendNodes(dst []*Node) []*Node {
	start := len(dst)
	if nodes := g.nodes.load(); nodes != nil {
		for _, n := range nodes {
			dst = append(dst, n)
		}
		slices.SortFunc(dst[start:], byID)
		return dst
	}
	for i := range g.nodeSlab {
		dst = append(dst, &g.nodeSlab[i])
	}
	sorted := dst[start:]
	slices.SortStableFunc(sorted, byID)
	kept := sorted[:0]
	for i, n := range sorted {
		if i+1 == len(sorted) || sorted[i+1].ID != n.ID {
			kept = append(kept, n)
		}
	}
	return dst[:start+len(kept)]
}

func byID(a, b *Node) int { return strings.Compare(a.ID, b.ID) }

// scratch is a reader's working memory, pooled so that encoding, decoding
// or asking HasParallelLinks of a graph allocates nothing it does not
// return: the nodes in ID order, the node lines DecodeText has read and
// the line each ID names, and the endpoint pairs HasParallelLinks has
// seen. The maps are emptied after each use.
type scratch struct {
	nodes []*Node
	spans []nodeSpan
	text  []byte
	ids   map[string]int32
	pairs map[[2]string]struct{}
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// emptied returns a pooled map cleared for its next use, or nil once it
// holds more than slabMax entries: clearing costs what a map has room for,
// so one large graph would otherwise tax every later use.
func emptied[M ~map[K]V, K comparable, V any](m M) M {
	if len(m) > slabMax {
		return nil
	}
	clear(m)
	return m
}

// Links returns the graph's links (stable order of insertion).
func (g *Graph) Links() []*Link { return g.links }

// NodeByAddr returns the node with the given address, or nil. Like Node's,
// it must not be written.
func (g *Graph) NodeByAddr(addr string) *Node { return g.addrTable()[addr] }

// AddLink inserts a link. Both endpoints must already exist.
func (g *Graph) AddLink(l Link) (*Link, error) {
	if g.Node(l.From) == nil || g.Node(l.To) == nil {
		return nil, fmt.Errorf("topology: link %s-%s references missing node", l.From, l.To)
	}
	g.own()
	g.linkSlab = carve(g.linkSlab)
	cp := &g.linkSlab[len(g.linkSlab)-1]
	*cp = l
	linkIdx, k := g.linkTable(), pairKey(l.From, l.To)
	if _, ok := linkIdx[k]; !ok {
		linkIdx[k] = int32(len(g.links))
	}
	g.links = append(g.links, cp)
	g.invalidate()
	return cp, nil
}

// HasParallelLinks reports whether two of the graph's links join the same
// pair of nodes, which Merge would fold into one. A graph with no link
// table answers from a pooled set of pairs, without building one.
func (g *Graph) HasParallelLinks() bool {
	if linkIdx := g.linkIdx.load(); linkIdx != nil {
		return len(linkIdx) != len(g.links)
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if sc.pairs == nil {
		sc.pairs = make(map[[2]string]struct{})
	}
	parallel := false
	for _, l := range g.links {
		k := pairKey(l.From, l.To)
		if _, parallel = sc.pairs[k]; parallel {
			break
		}
		sc.pairs[k] = struct{}{}
	}
	sc.pairs = emptied(sc.pairs)
	return parallel
}

// FindLink returns the first link joining the two nodes in either
// orientation, or nil.
func (g *Graph) FindLink(a, b string) *Link {
	if i, ok := g.linkTable()[pairKey(a, b)]; ok {
		return g.links[i]
	}
	return nil
}

// reindexLinks rebuilds the link table after bulk link mutation.
func (g *Graph) reindexLinks() {
	g.own()
	g.invalidate()
	g.linkIdx.v.Store(indexLinks(g))
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
	for id := range other.nodeTable() {
		if g.Node(id) == nil {
			fresh++
		}
	}
	g.nodeSlab = reserve(g.nodeSlab, fresh)
	for _, n := range other.nodeTable() {
		into := g.Node(n.ID)
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
		if n.Addr != "" && other.NodeByAddr(n.Addr) == n {
			g.addrTable()[n.Addr] = into
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
	for _, n := range other.nodeTable() {
		exist := g.Node(n.ID)
		if exist == nil {
			g.AddNode(*n)
			continue
		}
		newAddr := n.Addr != "" && n.Addr != exist.Addr
		if exist.Kind == n.Kind && !newAddr {
			continue
		}
		g.own()
		exist = g.Node(n.ID)
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
			if other.Node(id).Kind == HostNode {
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
// into one slab: the node slab and the tables g has built are shared
// until one side mutates its structure (own), each side building for
// itself a table neither had, and so is the memoized shape, whose link
// numbers are positions in the copy's links as much as in g's.
func (g *Graph) Clone() *Graph {
	g.shared.Store(true)
	out := &Graph{nodeSlab: g.nodeSlab}
	g.nodes.shareWith(&out.nodes)
	g.byAddr.shareWith(&out.byAddr)
	g.linkIdx.shareWith(&out.linkIdx)
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
