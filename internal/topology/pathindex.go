package topology

import (
	"encoding/binary"
	"math"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"remos/internal/maxmin"
	"remos/internal/rerr"
)

// PathIndex memoizes routing over a graph that no longer mutates (a
// snapshot generation). It is two parts. The shape is everything routing
// depends on — which node IDs exist, which links join them, in which
// order and orientation — as dense integers: an adjacency list built
// once, and a BFS tree per source node computed on first use and reused
// for every destination. The metrics view is what the answers read of
// the generation's links, copied out once when the index is built into
// one dense vector by link number: the available bandwidth each way,
// latency, and jitter squared. Flow allocations run max-min
// over only the directed link halves the requested flows actually cross,
// which yields the same rates as the whole-graph calculation (links
// carrying no requested flow never constrain progressive filling) at a
// cost proportional to path lengths rather than graph size — the
// property that keeps 10^4-node snapshots answerable at serving rates.
//
// The shape is the one the graph memoizes for its own routing, and a
// Clone carries it, so a generation cloned from the last one — and not
// reshaped since — reads the last one's adjacency and trees. A PathIndex
// must only be attached to a graph that will not change, measurements
// included: the index has read them already.
type PathIndex struct {
	g       *Graph
	shape   *shape
	metrics []linkMetrics // the shape's link i is g's links[i], measured as metrics[i]
}

// linkMetrics is what an index's answers read of one link: avail[h&1] is
// the bandwidth available along hop h, and jitter2 is the jitter squared
// in seconds², a path's variance being the sum over its links.
type linkMetrics struct {
	avail   [2]float64
	latency time.Duration
	jitter2 float64
}

// NewPathIndex builds the index over g on a shape of its own, with no
// trees yet, which becomes g's memoized shape only if g has none. The
// graph must not be mutated afterwards.
func NewPathIndex(g *Graph) *PathIndex {
	sh := newShape(g)
	g.shape.CompareAndSwap(nil, sh)
	return newIndex(g, sh)
}

// NewPathIndexFrom builds the index over g on the shape g carries — a
// Clone's is its original's, trees and all. A graph carrying none adopts
// prev's shape when it has exactly prev's node IDs and the same link
// endpoints in the same order and orientation (checked in O(nodes+links),
// never assumed); otherwise, or with a nil prev, this is NewPathIndex.
// Either way the answers are those of NewPathIndex(g): routing reads
// nothing of a graph but what the check compares.
func NewPathIndexFrom(prev *PathIndex, g *Graph) *PathIndex {
	if sh := g.shape.Load(); sh != nil {
		return newIndex(g, sh)
	}
	if prev == nil || !prev.shape.matches(g) {
		return NewPathIndex(g)
	}
	g.shape.CompareAndSwap(nil, prev.shape)
	return newIndex(g, g.shape.Load())
}

// newIndex is the index over g on sh, with the address tables only an
// index reads built, once per shape, and g's measurements read into the
// metrics vector.
func newIndex(g *Graph, sh *shape) *PathIndex {
	sh.addrOnce.Do(sh.indexAddrs)
	metrics := make([]linkMetrics, len(g.links))
	for i, l := range g.links {
		js := l.Jitter.Seconds()
		metrics[i] = linkMetrics{
			avail:   [2]float64{l.AvailFromTo(), l.AvailToFrom()},
			latency: l.Latency,
			jitter2: js * js,
		}
	}
	return &PathIndex{g: g, shape: sh, metrics: metrics}
}

// Graph returns the indexed graph (shared, not a copy).
func (px *PathIndex) Graph() *Graph { return px.g }

// NoNode is the node number of an address no node of the graph has as
// its ID.
const NoNode int32 = -1

// NumNodes is how many nodes the index numbers: 0 to NumNodes()-1, in ID
// order. Numbers mean the same node in every index that SharesNumbers.
func (px *PathIndex) NumNodes() int { return len(px.shape.ids) }

// NodeID returns the ID of node number n.
func (px *PathIndex) NodeID(n int32) string { return px.shape.ids[n] }

// NodeOf resolves an address to the number of the node whose ID is the
// address's canonical text, NoNode when there is none. It is keyed from
// the node IDs, never from Node.Addr: an address resolves exactly as its
// text does in FlowAlloc, so a router interface address that is not the
// router's ID stays unknown.
func (px *PathIndex) NodeOf(a netip.Addr) int32 { return px.shape.nodeOf(a) }

// SharesNumbers reports whether the two indexes number their nodes
// alike because they share one routing shape (see NewPathIndexFrom).
func (px *PathIndex) SharesNumbers(other *PathIndex) bool { return px.shape == other.shape }

// TreeBuilds counts the BFS trees computed over the index's shape since
// the shape was built, by this generation or any that shares it.
func (px *PathIndex) TreeBuilds() int64 { return px.shape.builds.Load() }

// A hop is one directed traversal of a link: link number << 1, low bit
// set when travelling To->From.
type hop int32

const noHop hop = -1

// treeBudget bounds the bytes of memoized BFS trees one shape keeps. A
// shape outlives the generations that share it, so without a bound a
// long-lived daemon asked about every source in turn would hold
// nodes² hops; at the bound the memo is dropped whole and refills with
// the sources still being asked about.
const treeBudget = 64 << 20

// shape is the routing structure of a graph, immutable but for the tree
// memo: dense node numbers in ID order, links numbered by their position
// in the graph's links, and a CSR adjacency in canonical order (peers
// ascending by ID, parallel links in insertion order) so that BFS
// tie-breaking depends on the graph's content and not on how it was
// assembled — a federated stitch of per-domain subgraphs arrives in a
// different link order than a single-master walk, and routes alike.
type shape struct {
	ids      []string         // node number -> ID, sorted
	num      map[string]int32 // ID -> node number
	from, to []int32          // link number -> endpoint node numbers
	off      []int32          // node number -> start in peers/hops; len(ids)+1
	peers    []int32          // neighbour node numbers
	hops     []hop            // the hop taken to reach the neighbour

	budget int64                    // treeBudget; a field so tests can reach the bound
	memo   atomic.Pointer[treeMemo] // nil until the first tree
	builds atomic.Int64

	// addr4 and addrs are num keyed by parsed address, for the node IDs
	// that are an address's canonical text: nodeOf(a) is num[a.String()]
	// without rendering a. Plain IPv4 — nearly every host — is keyed by its
	// 32 bits, which the runtime hashes and compares as one word; the
	// 24-byte netip.Addr keys of addrs (IPv6, 4-in-6, zoned) cost several
	// times that per lookup.
	// Only an index resolves addresses: its constructor builds them.
	addrOnce sync.Once
	addr4    map[uint32]int32
	addrs    map[netip.Addr]int32
}

// treeMemo holds one tree per source node: trees[src][v] is the hop
// that arrives at v on a shortest path from src, noHop for src itself
// and for nodes it cannot reach. Trees depend only on the shape, so every
// generation sharing the shape reads and fills the same memo, lock-free.
type treeMemo struct {
	trees []atomic.Pointer[[]hop]
	bytes atomic.Int64
}

func newShape(g *Graph) *shape {
	nodes := g.nodeTable()
	n := len(nodes)
	sh := &shape{
		ids:    make([]string, 0, n),
		num:    make(map[string]int32, n),
		from:   make([]int32, len(g.links)),
		to:     make([]int32, len(g.links)),
		off:    make([]int32, n+1),
		peers:  make([]int32, 2*len(g.links)),
		hops:   make([]hop, 2*len(g.links)),
		budget: treeBudget,
	}
	for id := range nodes {
		sh.ids = append(sh.ids, id)
	}
	sort.Strings(sh.ids)
	for i, id := range sh.ids {
		sh.num[id] = int32(i)
	}
	for i, l := range g.links {
		sh.from[i], sh.to[i] = sh.num[l.From], sh.num[l.To]
		sh.off[sh.from[i]+1]++
		sh.off[sh.to[i]+1]++
	}
	for v := 0; v < n; v++ {
		sh.off[v+1] += sh.off[v]
	}
	// Two stable counting passes put every node's hops in canonical
	// order without a comparison sort: group the hops by the node they
	// arrive at, in link order; then deal them out, arrival node
	// ascending, to the node they leave. Node numbers ascend with IDs, so
	// each node's list comes out peer-ID ascending with parallel links
	// still in insertion order.
	byPeer := make([]hop, 2*len(g.links))
	next := append([]int32(nil), sh.off[:n]...)
	for i := range g.links {
		byPeer[next[sh.to[i]]] = hop(i) << 1
		next[sh.to[i]]++
		byPeer[next[sh.from[i]]] = hop(i)<<1 | 1
		next[sh.from[i]]++
	}
	copy(next, sh.off[:n])
	for v := int32(0); int(v) < n; v++ {
		for _, h := range byPeer[sh.off[v]:sh.off[v+1]] {
			u := sh.tail(h)
			sh.peers[next[u]], sh.hops[next[u]] = v, h
			next[u]++
		}
	}
	return sh
}

func newTreeMemo(nodes int) *treeMemo {
	return &treeMemo{trees: make([]atomic.Pointer[[]hop], nodes)}
}

// tail and head are the node numbers a hop leaves and arrives at.
func (sh *shape) tail(h hop) int32 {
	if h&1 == 0 {
		return sh.from[h>>1]
	}
	return sh.to[h>>1]
}

func (sh *shape) head(h hop) int32 { return sh.tail(h ^ 1) }

// matches reports whether g routes exactly as the graph the shape was
// built from: the same node IDs, and link for link the same endpoints in
// the same orientation.
func (sh *shape) matches(g *Graph) bool {
	nodes := g.nodeTable()
	if len(nodes) != len(sh.ids) || len(g.links) != len(sh.from) {
		return false
	}
	for _, id := range sh.ids {
		if nodes[id] == nil {
			return false
		}
	}
	for i, l := range g.links {
		if l.From != sh.ids[sh.from[i]] || l.To != sh.ids[sh.to[i]] {
			return false
		}
	}
	return true
}

// noLink is the link number of a pair no link joins.
const noLink int32 = -1

// link returns the number of the first link, in insertion order, joining
// the two node IDs, or noLink: a lower-bound search of the first node's
// peers, which ascend, a pair's hops in link order.
func (sh *shape) link(a, b string) int32 {
	u, okA := sh.num[a]
	v, okB := sh.num[b]
	if !okA || !okB {
		return noLink
	}
	at := sh.off[u]
	if i, ok := slices.BinarySearch(sh.peers[at:sh.off[u+1]], v); ok {
		return int32(sh.hops[at+int32(i)] >> 1)
	}
	return noLink
}

// tree returns the memoized BFS tree rooted at src, computing it on
// first use.
func (sh *shape) tree(src int32) []hop {
	memo := sh.memo.Load()
	if memo == nil {
		sh.memo.CompareAndSwap(nil, newTreeMemo(len(sh.ids)))
		memo = sh.memo.Load()
	}
	if t := memo.trees[src].Load(); t != nil {
		return *t
	}
	t := make([]hop, len(sh.ids))
	for i := range t {
		t[i] = noHop
	}
	queue := make([]int32, 1, len(sh.ids))
	queue[0] = src
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for i := sh.off[cur]; i < sh.off[cur+1]; i++ {
			if peer := sh.peers[i]; peer != src && t[peer] == noHop {
				t[peer] = sh.hops[i]
				queue = append(queue, peer)
			}
		}
	}
	sh.builds.Add(1)
	if !memo.trees[src].CompareAndSwap(nil, &t) {
		// A racing builder installed the tree already; share its copy.
		return *memo.trees[src].Load()
	}
	if memo.bytes.Add(int64(len(t))*4) > sh.budget {
		// Over budget: start an empty memo. Readers holding a tree keep
		// it; fills racing into the dropped memo are dropped with it.
		sh.memo.Store(newTreeMemo(len(sh.ids)))
	}
	return t
}

// indexAddrs builds the address tables from the node IDs. (The one
// address whose text ParseAddr refuses is the zero Addr, "invalid IP"; no
// codec admits that as an ID, so it stays unknown.)
func (sh *shape) indexAddrs() {
	sh.addr4 = make(map[uint32]int32, len(sh.ids))
	sh.addrs = make(map[netip.Addr]int32)
	var text []byte
	for i, id := range sh.ids {
		a, err := netip.ParseAddr(id)
		if err != nil {
			continue
		}
		// "010.0.0.1" never parses, but "::FFFF:1.2.3.4" and "0::1" do:
		// only the spelling String() gives is the one a query renders.
		if text = a.AppendTo(text[:0]); string(text) != id {
			continue
		}
		if a.Is4() {
			sh.addr4[key4(a)] = int32(i)
		} else {
			sh.addrs[a] = int32(i)
		}
	}
}

func key4(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

func (sh *shape) nodeOf(a netip.Addr) int32 {
	var n int32
	var ok bool
	if a.Is4() { // never a 4-in-6 address, never zoned
		n, ok = sh.addr4[key4(a)]
	} else {
		n, ok = sh.addrs[a]
	}
	if !ok {
		return NoNode
	}
	return n
}

func unknownHost(end, id string) error {
	return rerr.Tagf(rerr.ErrUnknownHost, "topology: path %s %s not in graph", end, id)
}

// ends resolves a path's endpoint IDs to node numbers. A path from a
// node to itself needs only the source to exist.
func (sh *shape) ends(from, to string) (src, dst int32, err error) {
	src, ok := sh.num[from]
	if !ok {
		return 0, 0, unknownHost("source", from)
	}
	if from == to {
		return src, src, nil
	}
	if dst, ok = sh.num[to]; !ok {
		return 0, 0, unknownHost("destination", to)
	}
	return src, dst, nil
}

// route appends to buf the hops of a shortest path src->dst in travel
// order, reconstructed from the source's BFS tree.
func (sh *shape) route(buf []hop, src, dst int32) ([]hop, error) {
	if src == dst {
		return buf, nil
	}
	// Follow the arriving hops back from dst, then reverse.
	t := sh.tree(src)
	start := len(buf)
	for cur := dst; cur != src; {
		h := t[cur]
		if h == noHop {
			return buf[:start], rerr.Tagf(rerr.ErrNoRoute, "topology: no path from %s to %s", sh.ids[src], sh.ids[dst])
		}
		buf = append(buf, h)
		cur = sh.tail(h)
	}
	slices.Reverse(buf[start:])
	return buf, nil
}

// search is a breadth-first search from one node ID that stops at the
// other: Graph routing, and the reference for the memoized trees, which
// it matches hop for hop since both visit peers in canonical order.
func (sh *shape) search(from, to string) ([]hop, error) {
	src, dst, err := sh.ends(from, to)
	if err != nil || src == dst {
		return nil, err
	}
	// arrive[v] is the hop the search reached v by.
	arrive := make([]hop, len(sh.ids))
	for i := range arrive {
		arrive[i] = noHop
	}
	queue := make([]int32, 1, len(sh.ids))
	queue[0] = src
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for i := sh.off[cur]; i < sh.off[cur+1]; i++ {
			peer := sh.peers[i]
			if peer == src || arrive[peer] != noHop {
				continue
			}
			arrive[peer] = sh.hops[i]
			if peer != dst {
				queue = append(queue, peer)
				continue
			}
			n := 0
			for v := dst; v != src; v = sh.tail(arrive[v]) {
				n++
			}
			out := make([]hop, n)
			for v := dst; v != src; v = sh.tail(arrive[v]) {
				n--
				out[n] = arrive[v]
			}
			return out, nil
		}
	}
	return nil, rerr.Tagf(rerr.ErrNoRoute, "topology: no path from %s to %s", from, to)
}

// nodePath appends to out the node IDs along hops, starting at from.
func (sh *shape) nodePath(out []string, from string, hops []hop) []string {
	out = append(out, from)
	for _, h := range hops {
		out = append(out, sh.ids[sh.head(h)])
	}
	return out
}

// walk is route between two node IDs.
func (px *PathIndex) walk(buf []hop, from, to string) ([]hop, error) {
	src, dst, err := px.shape.ends(from, to)
	if err != nil {
		return buf, err
	}
	return px.shape.route(buf, src, dst)
}

// avail is the bandwidth available along hop h.
func (px *PathIndex) avail(h hop) float64 { return px.metrics[h>>1].avail[h&1] }

// Path returns the node IDs of a shortest path between two nodes,
// inclusive, from the memoized BFS tree.
func (px *PathIndex) Path(from, to string) ([]string, error) {
	st := flowScratchPool.Get().(*flowScratch)
	defer flowScratchPool.Put(st)
	hops, err := px.walk(st.hops[:0], from, to)
	st.hops = hops
	if err != nil {
		return nil, err
	}
	return px.shape.nodePath(make([]string, 0, len(hops)+1), from, hops), nil
}

// flowScratch is the per-call working state of the PathIndex queries,
// pooled so batched allocations reuse the hop buffer, the capacity
// vector, the hop->capacity table, and the maxmin scratch.
type flowScratch struct {
	hops  []hop         // every flow's path, end to end
	ends  []int         // flow i's hops end at hops[ends[i]]
	srcs  []int32       // flow i's source node number
	nodes []int32       // FlowAllocAddrs' own resolution of the endpoints
	flows []maxmin.Flow // flow i's demand; allocate adds its links
	links []int         // hops as capacity-vector positions, for maxmin
	caps  []float64
	rates []float64
	alloc maxmin.Allocator

	// slots[h] is hop h's position in caps if it carries the current
	// call's stamp, else left over from an earlier call, perhaps on
	// another index: stamping a call is what clearing a map[hop]int was,
	// at no cost per call.
	slots []hopSlot
	stamp uint32
}

type hopSlot struct {
	stamp uint32
	pos   int32
}

var flowScratchPool = sync.Pool{New: func() any { return new(flowScratch) }}

func (st *flowScratch) reset() {
	st.hops, st.ends, st.srcs, st.flows = st.hops[:0], st.ends[:0], st.srcs[:0], st.flows[:0]
}

// add appends one flow and its path.
func (st *flowScratch) add(sh *shape, src, dst int32, demand float64) (err error) {
	if st.hops, err = sh.route(st.hops, src, dst); err != nil {
		return err
	}
	st.ends = append(st.ends, len(st.hops))
	st.srcs = append(st.srcs, src)
	st.flows = append(st.flows, maxmin.Flow{Demand: demand})
	return nil
}

// nextStamp starts a call over an index of the given number of hops: no
// slot carries the stamp it returns. The table grows to the largest
// index the scratch has served; a fresh table is all zero stamps, which
// no call uses, and so is the table when the counter comes round.
func (st *flowScratch) nextStamp(hops int) uint32 {
	if len(st.slots) < hops {
		st.slots = make([]hopSlot, hops)
	}
	if st.stamp++; st.stamp == 0 {
		clear(st.slots)
		st.stamp = 1
	}
	return st.stamp
}

// FlowAnswer receives the answer for flow i of a query: its max-min
// rate, its path's latency and jitter, and the path's node IDs, which
// the receiver may keep.
type FlowAnswer func(i int, avail float64, lat, jitter time.Duration, path []string)

// allocate runs max-min over the flows st holds and hands each flow's
// answer to answer, in order. The capacity vector is restricted to the
// link directions the flows cross, which yields the whole-graph rates: a
// directed link no requested flow crosses has active count zero
// throughout progressive filling, so it never produces an increment
// bound and never freezes anything. It allocates one slab holding every
// path (each capped, so appending to one cannot reach the next).
func (px *PathIndex) allocate(st *flowScratch, answer FlowAnswer) error {
	st.links = slices.Grow(st.links[:0], len(st.hops))[:len(st.hops)]
	st.caps = st.caps[:0]
	stamp := st.nextStamp(2 * len(px.metrics))
	start := 0
	for i, end := range st.ends {
		links := st.links[start:end]
		for j, h := range st.hops[start:end] {
			s := &st.slots[h]
			if s.stamp != stamp {
				*s = hopSlot{stamp: stamp, pos: int32(len(st.caps))}
				st.caps = append(st.caps, px.avail(h))
			}
			links[j] = int(s.pos)
		}
		st.flows[i].Links = links
		start = end
	}
	rates, err := st.alloc.AllocateInto(st.rates[:0], st.caps, st.flows)
	if err != nil {
		return err
	}
	st.rates = rates

	sh := px.shape
	nodes := make([]string, 0, len(st.hops)+len(st.ends))
	start = 0
	for i, end := range st.ends {
		var lat time.Duration
		var jitterVar float64
		first := len(nodes)
		nodes = append(nodes, sh.ids[st.srcs[i]])
		for _, h := range st.hops[start:end] {
			m := &px.metrics[h>>1]
			lat += m.latency
			jitterVar += m.jitter2
			nodes = append(nodes, sh.ids[sh.head(h)])
		}
		start = end
		var jitter time.Duration
		if jitterVar != 0 {
			jitter = time.Duration(math.Sqrt(jitterVar) * float64(time.Second))
		}
		answer(i, rates[i], lat, jitter, nodes[first:len(nodes):len(nodes)])
	}
	return nil
}

// FlowAlloc answers a flow query like Graph.FlowAlloc, with identical
// rates, but from the memoized path trees and at a cost proportional to
// the paths' lengths (see allocate). It allocates the predictions and
// the slab their paths share.
func (px *PathIndex) FlowAlloc(reqs []FlowRequest) ([]FlowPrediction, error) {
	st := flowScratchPool.Get().(*flowScratch)
	defer flowScratchPool.Put(st)
	return px.flowAlloc(st, reqs)
}

// flowAlloc is FlowAlloc on a scratch of the caller's (a test's, to
// steer one scratch through several indexes).
func (px *PathIndex) flowAlloc(st *flowScratch, reqs []FlowRequest) ([]FlowPrediction, error) {
	st.reset()
	for _, rq := range reqs {
		src, dst, err := px.shape.ends(rq.Src, rq.Dst)
		if err == nil {
			err = st.add(px.shape, src, dst, rq.Demand)
		}
		if err != nil {
			return nil, err
		}
	}
	preds := make([]FlowPrediction, len(reqs))
	err := px.allocate(st, func(i int, avail float64, lat, jitter time.Duration, path []string) {
		preds[i] = FlowPrediction{Request: reqs[i], Available: avail, Latency: lat, Jitter: jitter, Path: path}
	})
	if err != nil {
		return nil, err
	}
	return preds, nil
}

// AddrFlow names one flow by its endpoints' addresses, for graphs whose
// host nodes are identified by canonical address text (every collector's
// are). It is the Modeler's and the public API's Flow.
type AddrFlow struct {
	Src, Dst netip.Addr
	// Demand is the rate the application wants in bits per second;
	// 0 asks "as much as possible".
	Demand float64
}

// FlowAllocAddrs is FlowAlloc over the flows' endpoints rendered as
// node IDs — the same rates, paths and errors, word for word — without
// rendering them: routing runs on node numbers, and text exists only in
// the error that names an unknown endpoint. A caller that has resolved
// the endpoints already (NodeOf, on this index or one it SharesNumbers
// with) passes the numbers, ends[2i] and ends[2i+1] for flows[i].Src and
// .Dst; with nil ends each endpoint is resolved here. The answers go to
// the caller's answer function, flow by flow, rather than into a slice of
// this package's choosing, so the path slab is the only allocation.
func (px *PathIndex) FlowAllocAddrs(flows []AddrFlow, ends []int32, answer FlowAnswer) error {
	st := flowScratchPool.Get().(*flowScratch)
	defer flowScratchPool.Put(st)
	return px.flowAllocAddrs(st, flows, ends, answer)
}

func (px *PathIndex) flowAllocAddrs(st *flowScratch, flows []AddrFlow, ends []int32, answer FlowAnswer) error {
	if ends == nil {
		st.nodes = st.nodes[:0]
		for i := range flows {
			st.nodes = append(st.nodes, px.shape.nodeOf(flows[i].Src), px.shape.nodeOf(flows[i].Dst))
		}
		ends = st.nodes
	}
	st.reset()
	for i := range flows {
		// A flow from a node to itself needs only the source to exist, and
		// has it: one address resolves to one number.
		f, src, dst := &flows[i], ends[2*i], ends[2*i+1]
		if src == NoNode {
			return unknownHost("source", f.Src.String())
		}
		if dst == NoNode {
			return unknownHost("destination", f.Dst.String())
		}
		if err := st.add(px.shape, src, dst, f.Demand); err != nil {
			return err
		}
	}
	return px.allocate(st, answer)
}
