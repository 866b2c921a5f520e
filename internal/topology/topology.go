// Package topology defines the virtual topology graph that Remos
// components exchange: collectors produce annotated graphs of the network
// regions they monitor, the Master Collector merges them, and the Modeler
// simplifies them and runs max-min flow calculations on them to answer
// application queries.
package topology

import (
	"fmt"
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
	// nodes is the graph's one lookup table, ID -> node: a memo built from
	// the node slab by its first reader (nodeTable), so a graph that never
	// mutates, such as an answer assembled, encoded and decoded, may never
	// build it. Every structural mutator builds it first (own) and keeps
	// it, so a graph without it holds its nodes in the slab alone, under
	// distinct IDs. What is asked by endpoint pair, the shape answers. A
	// Clone shares the node slab, the table if built and the nodes it
	// points to; only the links are copied. shared is the marker both then
	// carry: set by Clone on each, it makes every structural mutator take a
	// private copy first (own), so a graph never writes structure another
	// graph reads.
	nodes  atomic.Value // map[string]*Node, which it stores without allocating
	shared atomic.Bool
	// shape memoizes the graph's routing structure (routing): built by
	// the first routing request after a change, read by every one until
	// the next, and handed to a Clone, whose links are this graph's in
	// the same order. Everything that binds or drops a node or a link, or
	// rewrites a link's endpoints, drops it (invalidate).
	shape atomic.Pointer[shape]
}

// nodeTable returns the node table, building it from the node slab first
// if no reader has. Racing builders share the first table stored, as
// routing shares the shape.
func (g *Graph) nodeTable() map[string]*Node {
	if nodes := g.builtNodes(); nodes != nil {
		return nodes
	}
	m := make(map[string]*Node, len(g.nodeSlab))
	for i := range g.nodeSlab {
		m[g.nodeSlab[i].ID] = &g.nodeSlab[i]
	}
	g.nodes.CompareAndSwap(nil, m)
	return g.builtNodes()
}

// builtNodes returns the node table, nil if no reader has built it.
func (g *Graph) builtNodes() map[string]*Node {
	m, _ := g.nodes.Load().(map[string]*Node)
	return m
}

// eachNode calls f on each of the graph's nodes, in no order, building
// nothing: the table's nodes if it is built, else the slab's.
func (g *Graph) eachNode(f func(*Node)) {
	if nodes := g.builtNodes(); nodes != nil {
		for _, n := range nodes {
			f(n)
		}
		return
	}
	for i := range g.nodeSlab {
		f(&g.nodeSlab[i])
	}
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return Assemble(nil, nil) }

// Assemble returns the graph of nodes and links, taking both slices as its
// slabs and building no table: its first reader builds it. The nodes' IDs
// must be distinct, and the links must join them; parallel links are all
// kept, as AddLink keeps them.
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

// own gives g a structure of its own before it writes one: it builds the
// node table if no reader has, and if a Clone shares g's nodes and table,
// g copies both and drops its marker. The copy leaves the shape
// unchanged, so what is memoized stays.
func (g *Graph) own() {
	nodes := g.nodeTable()
	if !g.shared.Load() {
		return
	}
	own := make(map[string]*Node, len(nodes))
	slab := make([]Node, 0, len(nodes))
	for id, n := range nodes {
		slab = append(slab, *n)
		own[id] = &slab[len(slab)-1]
	}
	g.nodes.Store(own)
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
	g.nodeTable()[n.ID] = cp
	g.invalidate()
	return cp
}

// dropNode unbinds a node ID; links are the caller's business.
func (g *Graph) dropNode(id string) {
	if g.Node(id) != nil {
		g.own()
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
	if nodes := g.builtNodes(); nodes != nil {
		n = len(nodes)
	}
	return g.appendNodes(make([]*Node, 0, n))
}

// appendNodes appends the graph's nodes to dst sorted by ID.
func (g *Graph) appendNodes(dst []*Node) []*Node {
	start := len(dst)
	g.eachNode(func(n *Node) { dst = append(dst, n) })
	slices.SortFunc(dst[start:], byID)
	return dst
}

func byID(a, b *Node) int { return strings.Compare(a.ID, b.ID) }

// scratch is a reader's working memory, pooled so that encoding, decoding
// or asking HasParallelLinks of a graph allocates nothing it does not
// return: the nodes in ID order, the node lines DecodeText has read and
// the line each ID names, and the endpoint pairs HasParallelLinks has
// seen, or Merge and Update have joined, each with the link it names.
// The maps are emptied after each use.
type scratch struct {
	nodes []*Node
	spans []nodeSpan
	text  []byte
	ids   map[string]int32
	pairs map[[2]string]int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// pairTable returns the scratch's pair map, empty, made on first use.
func (sc *scratch) pairTable() map[[2]string]int32 {
	if sc.pairs == nil {
		sc.pairs = make(map[[2]string]int32)
	}
	return sc.pairs
}

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

// NodeByAddr returns a node carrying the given address, or nil. Like
// Node's, it must not be written. The answer depends on the graph's nodes
// alone, not on how the graph was built, decoded, cloned or merged: the
// node whose ID is the address, if it carries it — every host, found in
// one lookup — and otherwise, of the nodes carrying it, the one with the
// smallest ID, found by a scan.
func (g *Graph) NodeByAddr(addr string) *Node {
	if addr == "" {
		return nil
	}
	if n := g.Node(addr); n != nil && n.Addr == addr {
		return n
	}
	var carrier *Node
	for _, n := range g.nodeTable() {
		if n.Addr == addr && (carrier == nil || n.ID < carrier.ID) {
			carrier = n
		}
	}
	return carrier
}

// AddLink inserts a link. Both endpoints must already exist.
func (g *Graph) AddLink(l Link) (*Link, error) {
	if g.Node(l.From) == nil || g.Node(l.To) == nil {
		return nil, fmt.Errorf("topology: link %s-%s references missing node", l.From, l.To)
	}
	g.own()
	g.linkSlab = carve(g.linkSlab)
	cp := &g.linkSlab[len(g.linkSlab)-1]
	*cp = l
	g.links = append(g.links, cp)
	g.invalidate()
	return cp, nil
}

// HasParallelLinks reports whether two of the graph's links join the same
// pair of nodes, which Merge would fold into one. It answers from a pooled
// set of pairs, building nothing.
func (g *Graph) HasParallelLinks() bool {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	pairs := sc.pairTable()
	parallel := false
	for _, l := range g.links {
		k := pairKey(l.From, l.To)
		if _, parallel = pairs[k]; parallel {
			break
		}
		pairs[k] = 0
	}
	sc.pairs = emptied(pairs)
	return parallel
}

// FindLink returns the first link joining the two nodes in either
// orientation, or nil. The shape answers it, built first if a structural
// change dropped it, so a caller that adds links between lookups should
// keep its own index of pairs, as Merge does.
func (g *Graph) FindLink(a, b string) *Link {
	if i := g.routing().link(a, b); i != noLink {
		return g.links[i]
	}
	return nil
}

// readingsAs returns l's readings from and to the ends of k, which joins
// the same pair: l's own, or turned round.
func (l *Link) readingsAs(k *Link) (fromTo, toFrom float64) {
	if k.From != l.From {
		return l.UtilToFrom, l.UtilFromTo
	}
	return l.UtilFromTo, l.UtilToFrom
}

// Merge folds other into g: nodes are united by ID (other's attributes win
// for duplicates only where g's are empty) and duplicate links (same
// unordered endpoints) keep the larger utilization readings — collectors
// measuring the same physical link may report at different instants. The
// links are joined through an index of pairs local to the call, holding
// g's first link of each pair and every link other adds, so a later link
// of other folds into the one it found.
func (g *Graph) Merge(other *Graph) {
	g.own()
	fresh := 0
	other.eachNode(func(n *Node) {
		if g.Node(n.ID) == nil {
			fresh++
		}
	})
	g.nodeSlab = reserve(g.nodeSlab, fresh)
	other.eachNode(func(n *Node) {
		switch into := g.Node(n.ID); {
		case into == nil:
			g.AddNode(*n)
		case into.Addr == "":
			into.Addr = n.Addr
		}
	})
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	pairs := sc.pairTable()
	for i := len(g.links) - 1; i >= 0; i-- {
		pairs[pairKey(g.links[i].From, g.links[i].To)] = int32(i)
	}
	for i, l := range other.links {
		k := pairKey(l.From, l.To)
		if j, ok := pairs[k]; ok {
			exist := g.links[j]
			a, b := l.readingsAs(exist)
			exist.UtilFromTo = max(exist.UtilFromTo, a)
			exist.UtilToFrom = max(exist.UtilToFrom, b)
			continue
		}
		pairs[k] = int32(len(g.links))
		g.linkSlab = reserve(g.linkSlab, len(other.links)-i) // one chunk for all that are new; a no-op after the first
		g.AddLink(*l)                                        // both endpoints were just united
	}
	sc.pairs = emptied(pairs)
}

// Update folds a fresher partial measurement into g: nodes are united by
// ID with other's attributes winning, and duplicate links take other's
// readings outright. Where Merge resolves concurrent measurements of the
// same link by keeping the larger utilization, Update is for snapshot
// maintenance — other is a newer poll of the same region, so latest wins.
// A node is written only where other changes it, so a poll that moved
// measurements only leaves the structure shared with g's clones.
//
// other's links are matched to g's first, through the shape g carries (a
// generation's Clone carries its original's), before anything changes
// g's structure. The links g lacks are added once the nodes are united,
// two of one pair as one link, the later one's readings winning. A host g
// had that other links to a peer g did not link it to has moved: every
// link of g at that host that other lacks is dropped, so the host leaves
// its old attachment.
func (g *Graph) Update(other *Graph) {
	sh := g.routing()
	var unmatched []*Link
	for _, l := range other.links {
		if i := sh.link(l.From, l.To); i != noLink {
			g.links[i].take(l)
		} else {
			unmatched = append(unmatched, l)
		}
	}
	other.eachNode(func(n *Node) {
		exist := g.Node(n.ID)
		if exist == nil {
			g.AddNode(*n)
			return
		}
		if exist.Kind == n.Kind && (n.Addr == "" || n.Addr == exist.Addr) {
			return
		}
		g.own()
		exist = g.Node(n.ID)
		exist.Kind = n.Kind
		if n.Addr != "" {
			exist.Addr = n.Addr
		}
	})
	if len(unmatched) == 0 {
		return
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	pairs := sc.pairTable()
	var moved map[string]bool
	g.linkSlab = reserve(g.linkSlab, len(unmatched))
	for _, l := range unmatched {
		k := pairKey(l.From, l.To)
		if i, ok := pairs[k]; ok {
			g.links[i].take(l)
			continue
		}
		pairs[k] = int32(len(g.links))
		g.AddLink(*l)
		for _, id := range [2]string{l.From, l.To} {
			// A host new to g has no link but those other brings.
			if _, had := sh.num[id]; had && g.Node(id).Kind == HostNode {
				if moved == nil {
					moved = make(map[string]bool)
				}
				moved[id] = true
			}
		}
	}
	clear(pairs)
	if len(moved) > 0 {
		for _, l := range other.links {
			if moved[l.From] || moved[l.To] {
				pairs[pairKey(l.From, l.To)] = 0
			}
		}
		g.links = slices.DeleteFunc(g.links, func(l *Link) bool {
			_, polled := pairs[pairKey(l.From, l.To)]
			return (moved[l.From] || moved[l.To]) && !polled
		})
		g.invalidate()
	}
	sc.pairs = emptied(pairs)
}

// take writes l's readings over k's, which joins the same pair: latest
// wins.
func (k *Link) take(l *Link) {
	k.UtilFromTo, k.UtilToFrom = l.readingsAs(k)
	k.Capacity, k.Latency, k.Jitter = l.Capacity, l.Latency, l.Jitter
}

// Clone returns a copy whose links may be written and whose structure may
// be mutated without touching g. Copies sit on serving paths (snapshot
// generations, QUERY answers, predictions), so only the links are copied,
// into one slab: the node slab and the node table, if g has built it, are
// shared until one side mutates its structure (own), each side building
// for itself a table neither had, and so is the memoized shape, whose link
// numbers are positions in the copy's links as much as in g's.
func (g *Graph) Clone() *Graph {
	g.shared.Store(true)
	out := &Graph{nodeSlab: g.nodeSlab}
	if nodes := g.builtNodes(); nodes != nil {
		out.nodes.Store(nodes)
	}
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
