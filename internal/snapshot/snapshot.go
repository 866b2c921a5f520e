// Package snapshot is the versioned topology snapshot plane: an
// immutable topology+metrics generation maintained incrementally from
// background poll completions (internal/sched) and swapped in via
// atomic.Pointer, the same copy-on-write discipline the warm-query
// cache uses. The Modeler answers topology and flow queries from the
// current generation when it is fresh enough — zero collector
// round-trips, zero graph clones — and falls back to collector fan-out
// only on miss or staleness, with overlapping cold queries single-flight
// coalesced by merged host set so N clients asking about the same
// region trigger one walk.
//
// Each generation (an Epoch) carries the merged graph, a
// topology.PathIndex whose memoized BFS trees and reduced-capacity
// max-min make flow answers O(path length) instead of O(graph size), and
// the hosts' freshness stamps as a vector indexed by the index's node
// numbers — so one resolution of a host's address serves the freshness
// check and the routing both. A poll that only moved measurements leaves
// the routing shape as it was, so the new generation's index shares the
// old one's adjacency, trees and node numbers (topology.NewPathIndexFrom
// checks that it may) and its stamps are the old vector copied and
// patched. State derived from one generation alone — the pruned/collapsed
// subgraph memo — belongs to that generation and is collected with it:
// the Store holds nothing keyed by epoch, so there is nothing to evict
// on a swap.
package snapshot

import (
	"context"
	"maps"
	"math"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"remos/internal/collector"
	"remos/internal/obs"
	"remos/internal/topology"
)

// Epoch numbers snapshot generations. Every Apply produces a new epoch.
type Epoch uint64

// Snapshot is one immutable generation. Everything but the subgraph
// memo is frozen at Apply time; readers share the struct without
// synchronization.
type Snapshot struct {
	epoch Epoch
	graph *topology.Graph
	paths *topology.PathIndex
	at    time.Time // most recent apply folded in

	// Freshness: when each host was last applied, as an offset from base —
	// the first generation's apply instant, the same for every generation
	// of a store. Offsets are taken with Time.Sub, so clocks that carry a
	// monotonic reading are compared on it, as now.Sub(at) would, and a
	// step of the wall clock ages nothing. stamps is indexed by paths' node
	// numbers and holds never for a node no apply named. offGraph holds
	// the hosts applied that paths cannot resolve (a router interface
	// address: a node's Addr, not its ID); it is consulted for those hosts
	// only, never written once the generation is published, and shared
	// with the next generation unless that one must change it.
	base     time.Time
	stamps   []time.Duration
	offGraph map[netip.Addr]time.Duration
	ownsOff  bool // Apply's, while it builds s: offGraph is not the predecessor's map

	// memo holds the generation's pruned/collapsed subgraphs by
	// endpoint-set signature (sorted node IDs joined by commas). It is
	// made on the first Subgraph and dies with the generation.
	memoMu sync.Mutex
	memo   map[string]*topology.Graph
}

// Epoch returns the generation number.
func (s *Snapshot) Epoch() Epoch { return s.epoch }

// Graph returns the generation's merged graph. It is shared and must
// not be mutated; use Clone (or Store.Subgraph) for a caller-owned copy.
func (s *Snapshot) Graph() *topology.Graph { return s.graph }

// Paths returns the generation's path index.
func (s *Snapshot) Paths() *topology.PathIndex { return s.paths }

// At returns the time of the apply that produced this generation.
func (s *Snapshot) At() time.Time { return s.at }

// never is the stamp of a host no apply has named.
const never = time.Duration(math.MinInt64)

// offGraphCap bounds offGraph. At the bound the map is emptied before
// the next host goes in: a dropped stamp costs that host's next query a
// collector walk, nothing else.
const offGraphCap = 1024

// FreshFor reports whether every given host was refreshed within bound
// of now. A host never applied is never fresh.
func (s *Snapshot) FreshFor(hosts []netip.Addr, bound time.Duration, now time.Time) bool {
	return s.freshFor(hosts, nil, bound, now)
}

// freshFor is FreshFor that also leaves in nodes[i], when nodes is not
// nil, the node number of hosts[i] in s.paths — of every host if the
// answer is yes, up to the first stale one if it is no.
func (s *Snapshot) freshFor(hosts []netip.Addr, nodes []int32, bound time.Duration, now time.Time) bool {
	age := now.Sub(s.base) // of base; a host's age is this less its stamp
	for i, h := range hosts {
		at := never
		n := s.paths.NodeOf(h)
		if n != topology.NoNode {
			at = s.stamps[n]
		} else if off, ok := s.offGraph[h]; ok {
			at = off
		}
		if nodes != nil {
			nodes[i] = n
		}
		if at == never || age-at > bound {
			return false
		}
	}
	return true
}

// inherit gives s, whose graph and paths are set, the stamps of the
// generation before it and reports whether they had to be re-homed. A
// generation that shares its predecessor's node numbers copies the
// vector — the predecessor's is being read beside us — and shares the
// overflow. Otherwise every stamp is put again under the new numbers: a
// node that left the graph moves to the overflow, a host that entered it
// moves out.
func (s *Snapshot) inherit(old *Snapshot) (rehomed bool) {
	s.stamps = make([]time.Duration, s.paths.NumNodes())
	if old != nil && s.paths.SharesNumbers(old.paths) {
		copy(s.stamps, old.stamps)
		s.offGraph = old.offGraph
		return false
	}
	for i := range s.stamps {
		s.stamps[i] = never
	}
	if old == nil {
		return false
	}
	for n, at := range old.stamps {
		if at == never {
			continue
		}
		// Only a node NodeOf resolves is ever stamped: its ID parses.
		if h, err := netip.ParseAddr(old.paths.NodeID(int32(n))); err == nil {
			s.stamp(h, at)
		}
	}
	for h, at := range old.offGraph {
		s.stamp(h, at)
	}
	return true
}

// stamp records that host h was applied at offset at: in the vector if
// the graph holds h, in the overflow if not. The first write to an
// overflow shared with the predecessor clones it.
func (s *Snapshot) stamp(h netip.Addr, at time.Duration) {
	if n := s.paths.NodeOf(h); n != topology.NoNode {
		s.stamps[n] = at
		return
	}
	if !s.ownsOff {
		if s.offGraph = maps.Clone(s.offGraph); s.offGraph == nil {
			s.offGraph = make(map[netip.Addr]time.Duration)
		}
		s.ownsOff = true
	}
	if _, held := s.offGraph[h]; !held && len(s.offGraph) >= offGraphCap {
		clear(s.offGraph)
	}
	s.offGraph[h] = at
}

// Config wires a Store.
type Config struct {
	// Now supplies the clock (the deployment's sim clock in tests and
	// benchmarks, wall time in remosd). Required.
	Now func() time.Time
	// Obs, when set, receives the snapshot_* metrics.
	Obs *obs.Registry
}

// Store maintains the current generation. All methods are safe for
// concurrent use; readers of Current never block writers and vice
// versa.
type Store struct {
	now func() time.Time
	cur atomic.Pointer[Snapshot]

	applyMu sync.Mutex // serializes Apply (epoch construction + swap)

	flightMu sync.Mutex
	inflight *flight
	pending  *flight

	mApplies    *obs.Counter
	mHits       *obs.Counter
	mMisses     *obs.Counter
	mRefreshes  *obs.Counter
	mRefreshErr *obs.Counter
	mCoalesced  *obs.Counter
	mSubHits    *obs.Counter
	mSubBuilds  *obs.Counter
	mReshapes   *obs.Counter
	gEpoch      *obs.Gauge
	gOffGraph   *obs.Gauge
}

// flight is one in-progress coalesced collector walk.
type flight struct {
	hosts map[netip.Addr]bool
	done  chan struct{}
	snap  *Snapshot
	err   error
}

// New creates an empty store. It panics on a Config without a clock: a
// store that fell back to wall time would call every snapshot of a
// simulated deployment stale.
func New(cfg Config) *Store {
	if cfg.Now == nil {
		panic("snapshot: Config.Now is required")
	}
	st := &Store{now: cfg.Now}
	st.mApplies = cfg.Obs.Counter("remos_snapshot_applies_total", "poll results folded into the snapshot plane")
	st.mHits = cfg.Obs.Counter("remos_snapshot_hits_total", "queries answered from a fresh snapshot")
	st.mMisses = cfg.Obs.Counter("remos_snapshot_misses_total", "queries that found no fresh-enough snapshot")
	st.mRefreshes = cfg.Obs.Counter("remos_snapshot_refreshes_total", "coalesced collector walks launched on snapshot miss")
	st.mRefreshErr = cfg.Obs.Counter("remos_snapshot_refresh_errors_total", "coalesced collector walks that failed")
	st.mCoalesced = cfg.Obs.Counter("remos_snapshot_coalesced_total", "cold queries that joined an in-flight walk instead of launching one")
	st.mSubHits = cfg.Obs.Counter("remos_snapshot_subgraph_hits_total", "simplified-subgraph memo hits")
	st.mSubBuilds = cfg.Obs.Counter("remos_snapshot_subgraph_builds_total", "simplified subgraphs computed and memoized")
	st.mReshapes = cfg.Obs.Counter("remos_snapshot_reshapes_total", "applies that could not share the previous generation's routing shape and re-homed every freshness stamp")
	st.gEpoch = cfg.Obs.Gauge("remos_snapshot_epoch", "current snapshot generation number")
	st.gOffGraph = cfg.Obs.Gauge("remos_snapshot_offgraph_hosts", "applied hosts the current generation's graph does not hold as a node")
	cfg.Obs.GaugeFunc("remos_snapshot_tree_builds", "routing trees the current generation's shape has built (0 before the first generation)", func() float64 {
		if s := st.Current(); s != nil {
			return float64(s.Paths().TreeBuilds())
		}
		return 0
	})
	return st
}

// Current returns the latest generation, or nil before the first Apply.
func (st *Store) Current() *Snapshot { return st.cur.Load() }

// Fresh returns the current generation if every host is within bound of
// the store's clock, else nil. It records the hit/miss metrics, so call
// it once per query decision.
func (st *Store) Fresh(hosts []netip.Addr, bound time.Duration) *Snapshot {
	return st.FreshNodes(hosts, nil, bound)
}

// FreshNodes is Fresh for a caller that goes on to route over the
// generation it gets: the freshness check resolves every host to its node
// number in the generation's path index anyway (topology.NoNode for a
// host the graph does not hold), and leaves them in nodes, which must be
// as long as hosts. Without a generation nodes holds nothing of use.
func (st *Store) FreshNodes(hosts []netip.Addr, nodes []int32, bound time.Duration) *Snapshot {
	s := st.cur.Load()
	if s == nil || bound <= 0 || !s.freshFor(hosts, nodes, bound, st.now()) {
		st.mMisses.Inc()
		return nil
	}
	st.mHits.Inc()
	return s
}

// Apply folds one poll result into a new generation: the previous graph
// is cloned, the result is merged latest-wins (topology.Update), the
// polled hosts' freshness stamps advance to at — the instant the poll
// began reading, not the one it was done — and the new Snapshot, its
// PathIndex sharing the previous generation's routing shape when the
// poll changed measurements only, is swapped in atomically. Returns the
// new generation.
func (st *Store) Apply(hosts []netip.Addr, res *collector.Result, at time.Time) *Snapshot {
	if res == nil || res.Graph == nil {
		return st.cur.Load()
	}
	st.applyMu.Lock()
	old := st.cur.Load()
	snap := &Snapshot{epoch: 1, graph: topology.NewGraph(), at: at, base: at}
	var prev *topology.PathIndex
	if old != nil {
		snap.epoch, snap.graph, snap.base = old.epoch+1, old.graph.Clone(), old.base
		prev = old.paths
	}
	snap.graph.Update(res.Graph)
	snap.paths = topology.NewPathIndexFrom(prev, snap.graph)
	rehomed := snap.inherit(old)
	offset := at.Sub(snap.base)
	for _, h := range hosts {
		snap.stamp(h, offset)
	}
	st.cur.Store(snap)
	st.applyMu.Unlock()

	st.mApplies.Inc()
	if rehomed {
		st.mReshapes.Inc()
	}
	st.gEpoch.Set(float64(snap.epoch))
	st.gOffGraph.Set(float64(len(snap.offGraph)))
	return snap
}

// Subgraph returns the pruned + collapsed simplification of the
// generation's graph for the given endpoint node IDs, memoized on the
// generation per endpoint-set signature. The returned graph is a private
// clone the caller owns.
func (st *Store) Subgraph(s *Snapshot, ids []string) (*topology.Graph, error) {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	sig := strings.Join(sorted, ",")
	s.memoMu.Lock()
	g, ok := s.memo[sig]
	s.memoMu.Unlock()
	if ok {
		st.mSubHits.Inc()
		return g.Clone(), nil
	}
	pruned, err := s.graph.Prune(ids)
	if err != nil {
		return nil, err
	}
	pruned.CollapseSwitchClouds("vswitch")
	protect := make(map[string]bool, len(ids))
	for _, id := range ids {
		protect[id] = true
	}
	pruned.CollapseChains(protect)
	s.memoMu.Lock()
	if s.memo == nil {
		s.memo = make(map[string]*topology.Graph)
	}
	s.memo[sig] = pruned
	s.memoMu.Unlock()
	st.mSubBuilds.Inc()
	return pruned.Clone(), nil
}

// Refresh performs a coalesced collector walk covering hosts and
// applies the result, returning the resulting generation. Concurrent
// callers share walks: a caller whose hosts are covered by the walk in
// flight joins it; otherwise its hosts merge into the next walk, which
// one merged caller leads once the current one lands. Each waiter still
// honors its own context. On error the caller should fall back to a
// direct collect — the flight's failure is shared, its fallback is not.
func (st *Store) Refresh(ctx context.Context, coll collector.Interface, hosts []netip.Addr) (*Snapshot, error) {
	for {
		st.flightMu.Lock()
		if f := st.inflight; f != nil {
			if coveredBy(hosts, f.hosts) {
				st.flightMu.Unlock()
				st.mCoalesced.Inc()
				select {
				case <-f.done:
					return f.snap, f.err
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			// Not covered: merge into the accumulating next walk and
			// wait for the current one to land, then loop — either
			// another merged caller has become the leader (we are
			// covered by the new inflight) or we lead it ourselves.
			if st.pending == nil {
				st.pending = &flight{hosts: make(map[netip.Addr]bool, len(hosts)), done: make(chan struct{})}
			}
			for _, h := range hosts {
				st.pending.hosts[h] = true
			}
			st.flightMu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			continue
		}
		// No walk in flight: lead one, absorbing any accumulated batch.
		f := st.pending
		st.pending = nil
		if f == nil {
			f = &flight{hosts: make(map[netip.Addr]bool, len(hosts)), done: make(chan struct{})}
		}
		for _, h := range hosts {
			f.hosts[h] = true
		}
		st.inflight = f
		st.flightMu.Unlock()

		st.mRefreshes.Inc()
		merged := make([]netip.Addr, 0, len(f.hosts))
		for h := range f.hosts {
			merged = append(merged, h)
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i].Less(merged[j]) })
		// The readings are no younger than the moment the walk began: a
		// stamp taken after it would call them fresh for the walk's length
		// longer than they are.
		began := st.now()
		res, err := coll.Collect(collector.Query{Hosts: merged}.WithContext(ctx))
		var snap *Snapshot
		if err != nil {
			st.mRefreshErr.Inc()
		} else {
			snap = st.Apply(merged, res, began)
		}
		st.flightMu.Lock()
		f.snap, f.err = snap, err
		st.inflight = nil
		st.flightMu.Unlock()
		close(f.done)
		return snap, err
	}
}

// coveredBy reports whether every host is in set.
func coveredBy(hosts []netip.Addr, set map[netip.Addr]bool) bool {
	for _, h := range hosts {
		if !set[h] {
			return false
		}
	}
	return true
}
