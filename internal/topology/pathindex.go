package topology

import (
	"math"
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
// for every destination. The metrics view is the generation's own links,
// addressed by the shape's link numbers. Flow allocations run max-min
// over only the directed link halves the requested flows actually cross,
// which yields the same rates as the whole-graph calculation (links
// carrying no requested flow never constrain progressive filling) at a
// cost proportional to path lengths rather than graph size — the
// property that keeps 10^4-node snapshots answerable at serving rates.
//
// A PathIndex must only be attached to a graph that will not change. A
// new generation gets its own index, but NewPathIndexFrom lets it share
// the previous one's shape — adjacency and memoized trees — when the two
// graphs provably route alike.
type PathIndex struct {
	g     *Graph
	shape *shape
	links []*Link // g's links; the shape's link i is links[i]
}

// NewPathIndex builds the index over g from scratch. The graph must not
// be mutated afterwards.
func NewPathIndex(g *Graph) *PathIndex {
	return &PathIndex{g: g, shape: newShape(g), links: g.links}
}

// NewPathIndexFrom builds the index over g, sharing prev's shape when g
// has exactly prev's node IDs and the same link endpoints in the same
// order and orientation — what a poll that only moved measurements
// produces. That is checked against g in O(nodes+links), never assumed;
// any difference (or a nil prev) falls back to NewPathIndex. Either way
// the answers are those of NewPathIndex(g): routing reads nothing of a
// graph but what the check compares.
func NewPathIndexFrom(prev *PathIndex, g *Graph) *PathIndex {
	if prev == nil || !prev.shape.matches(g) {
		return NewPathIndex(g)
	}
	return &PathIndex{g: g, shape: prev.shape, links: g.links}
}

// Graph returns the indexed graph (shared, not a copy).
func (px *PathIndex) Graph() *Graph { return px.g }

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
// memo: dense node numbers in ID order, links by endpoint numbers, and a
// CSR adjacency in canonical order (peers ascending by ID, parallel
// links in insertion order) so that BFS tie-breaking depends on the
// graph's content and not on how it was assembled.
type shape struct {
	ids      []string         // node number -> ID, sorted
	num      map[string]int32 // ID -> node number
	from, to []int32          // link number -> endpoint node numbers
	off      []int32          // node number -> start in peers/hops; len(ids)+1
	peers    []int32          // neighbour node numbers
	hops     []hop            // the hop taken to reach the neighbour

	budget int64 // treeBudget; a field so tests can reach the bound
	memo   atomic.Pointer[treeMemo]
	builds atomic.Int64
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
	n := len(g.nodes)
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
	for id := range g.nodes {
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
	sh.memo.Store(newTreeMemo(n))
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
	if len(g.nodes) != len(sh.ids) || len(g.links) != len(sh.from) {
		return false
	}
	for _, id := range sh.ids {
		if g.nodes[id] == nil {
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

// tree returns the memoized BFS tree rooted at src, computing it on
// first use.
func (sh *shape) tree(src int32) []hop {
	memo := sh.memo.Load()
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

// walk appends to buf the hops of a shortest path from->to in travel
// order, reconstructed from the source's BFS tree.
func (px *PathIndex) walk(buf []hop, from, to string) ([]hop, error) {
	sh := px.shape
	src, ok := sh.num[from]
	if !ok {
		return buf, rerr.Tagf(rerr.ErrUnknownHost, "topology: path source %s not in graph", from)
	}
	if from == to {
		return buf, nil
	}
	dst, ok := sh.num[to]
	if !ok {
		return buf, rerr.Tagf(rerr.ErrUnknownHost, "topology: path destination %s not in graph", to)
	}
	// Follow the arriving hops back from dst, then reverse.
	t := sh.tree(src)
	start := len(buf)
	for cur := dst; cur != src; {
		h := t[cur]
		if h == noHop {
			return buf[:start], rerr.Tagf(rerr.ErrNoRoute, "topology: no path from %s to %s", from, to)
		}
		buf = append(buf, h)
		cur = sh.tail(h)
	}
	for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf, nil
}

// avail is the available bandwidth in the hop's direction, from this
// generation's measurements.
func (px *PathIndex) avail(h hop) float64 {
	if h&1 == 0 {
		return px.links[h>>1].AvailFromTo()
	}
	return px.links[h>>1].AvailToFrom()
}

// nodePath appends to out the node IDs along hops, starting at from.
func (px *PathIndex) nodePath(out []string, from string, hops []hop) []string {
	out = append(out, from)
	for _, h := range hops {
		out = append(out, px.shape.ids[px.shape.head(h)])
	}
	return out
}

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
	return px.nodePath(make([]string, 0, len(hops)+1), from, hops), nil
}

// BottleneckAvail is Graph.BottleneckAvail from the memoized trees.
func (px *PathIndex) BottleneckAvail(from, to string) (bw float64, path []string, err error) {
	st := flowScratchPool.Get().(*flowScratch)
	defer flowScratchPool.Put(st)
	hops, err := px.walk(st.hops[:0], from, to)
	st.hops = hops
	if err != nil {
		return 0, nil, err
	}
	for i, h := range hops {
		if a := px.avail(h); i == 0 || a < bw {
			bw = a
		}
	}
	return bw, px.nodePath(make([]string, 0, len(hops)+1), from, hops), nil
}

// flowScratch is the per-call working state of the PathIndex queries,
// pooled so batched allocations reuse the hop buffer, the capacity
// vector, the hop->capacity map, and the maxmin scratch.
type flowScratch struct {
	hops  []hop // every flow's path, end to end
	ends  []int // flow i's hops end at hops[ends[i]]
	links []int // hops as capacity-vector positions, for maxmin
	caps  []float64
	index map[hop]int
	flows []maxmin.Flow
	rates []float64
	alloc maxmin.Allocator
}

var flowScratchPool = sync.Pool{
	New: func() any { return &flowScratch{index: make(map[hop]int)} },
}

// FlowAlloc answers a flow query like Graph.FlowAlloc, but from the
// memoized path trees and over a capacity vector restricted to the link
// directions the requested flows cross. The rates are identical to the
// whole-graph allocation: a directed link no requested flow crosses has
// active count zero throughout progressive filling, so it never
// produces an increment bound and never freezes anything.
func (px *PathIndex) FlowAlloc(reqs []FlowRequest) ([]FlowPrediction, error) {
	st := flowScratchPool.Get().(*flowScratch)
	defer flowScratchPool.Put(st)
	st.hops, st.ends = st.hops[:0], st.ends[:0]
	for _, rq := range reqs {
		var err error
		if st.hops, err = px.walk(st.hops, rq.Src, rq.Dst); err != nil {
			return nil, err
		}
		st.ends = append(st.ends, len(st.hops))
	}
	st.links = slices.Grow(st.links[:0], len(st.hops))[:len(st.hops)]
	st.caps, st.flows = st.caps[:0], st.flows[:0]
	clear(st.index)

	// What the caller keeps: the predictions, and one slab holding every
	// path (each capped, so appending to one cannot reach the next).
	preds := make([]FlowPrediction, len(reqs))
	nodes := make([]string, 0, len(st.hops)+len(reqs))
	start := 0
	for i, rq := range reqs {
		hops, links := st.hops[start:st.ends[i]], st.links[start:st.ends[i]]
		start = st.ends[i]
		var lat time.Duration
		var jitterVar float64
		for j, h := range hops {
			li, ok := st.index[h]
			if !ok {
				li = len(st.caps)
				st.index[h] = li
				st.caps = append(st.caps, px.avail(h))
			}
			links[j] = li
			l := px.links[h>>1]
			lat += l.Latency
			js := l.Jitter.Seconds()
			jitterVar += js * js
		}
		st.flows = append(st.flows, maxmin.Flow{Links: links, Demand: rq.Demand})
		first := len(nodes)
		nodes = px.nodePath(nodes, rq.Src, hops)
		preds[i] = FlowPrediction{
			Request: rq, Latency: lat, Path: nodes[first:len(nodes):len(nodes)],
			Jitter: time.Duration(math.Sqrt(jitterVar) * float64(time.Second)),
		}
	}
	rates, err := st.alloc.AllocateInto(st.rates[:0], st.caps, st.flows)
	if err != nil {
		return nil, err
	}
	st.rates = rates
	for i := range preds {
		preds[i].Available = rates[i]
	}
	return preds, nil
}
