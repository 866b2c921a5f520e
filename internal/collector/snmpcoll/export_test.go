package snmpcoll

import (
	"context"
	"net/netip"
	"testing"

	"remos/internal/collector"
	"remos/internal/snmp"
)

// startBuild returns a build of its own, not the pool's, started for one
// query.
func startBuild(ctx context.Context, c *Collector, hosts int) *build {
	b := c.newBuild()
	b.start(ctx, hosts)
	return b
}

// PoolMax is the most entries a pooled build's or request's map or slice
// may hold.
const PoolMax = poolMax

// PooledAfter answers q on a build as CollectWithStats does, then adds
// extra entries to the build's joins, as a query that made that many more
// joins would have. It reports whether reset lets the build go back to the
// pool and, when it does, how many entries the build's maps and slices
// still hold and whether it still refers to the query.
func (c *Collector) PooledAfter(q collector.Query, extra int) (pooled bool, held int, err error) {
	ctx := q.Context()
	b := startBuild(ctx, c, len(q.Hosts))
	if err := b.discover(q.Hosts); err != nil {
		return false, 0, err
	}
	b.annotate()
	for i := range extra {
		b.joins = append(b.joins, pair{int32(-2 - i), 0})
	}
	if !b.reset() {
		return false, 0, nil
	}
	held = len(b.nodes) + len(b.links) + len(b.linked) + len(b.hosts) + len(b.pos) + len(b.at) +
		len(b.order) + len(b.routers) + len(b.routerErr) + len(b.used) + len(b.joins) + len(b.nextHops) +
		len(b.segs) + len(b.chains) + len(b.hops) + len(b.routes) + len(b.l2links) + len(b.l2nodes) +
		len(b.index) + len(b.ask) + len(b.gws) + len(b.fetched) + len(b.arpGroups) + len(b.asked) +
		len(b.swGroups) + len(b.moved) + len(b.places) + len(b.stale) + len(b.added) + len(b.unread)
	if b.ctx != nil || b.l2gen.Links() != 0 || b.l2regen {
		held++
	}
	return true, held, nil
}

// RequestPooled reports whether a request whose arena grew to hold subIDs
// sub-identifiers goes back to the pool.
func RequestPooled(subIDs int) bool {
	r := &request{arena: make(snmp.OIDArena, 0, subIDs)}
	return r.poolable()
}

// PointState is what one of the collector's poll points holds.
type PointState struct {
	Agent     netip.Addr
	IfIndex   int
	HC        bool // settled on the high-capacity counters
	Counter32 bool // settled on the legacy ones
	Baseline  bool // a counter reading to take the next delta from
}

// Points lists the collector's poll points.
func (c *Collector) Points() []PointState {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []PointState
	for _, p := range c.monitors {
		p.mu.Lock()
		out = append(out, PointState{Agent: p.agent, IfIndex: p.ifIndex,
			HC: p.mode == modeHC, Counter32: p.mode == mode32, Baseline: p.havePrev})
		p.mu.Unlock()
	}
	return out
}

// Cached reports how many router views (by address), ARP entries and
// monitors the collector holds.
func (c *Collector) Cached() (routers, arp, monitors int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.routers), len(c.arp), len(c.monitors)
}

// RouterView is what one cold walk learned of a router.
type RouterView struct {
	Addrs  []netip.Addr // the address walked first, then the router's others
	Routes []RouteView
	ri     *routerInfo
}

// RouteView is one route of a router view.
type RouteView struct {
	Prefix  netip.Prefix
	NextHop netip.Addr // invalid = directly connected
	IfIndex int
}

// WalkRouter walks the router at addr as a first contact does, sharing no
// cache with the collector's queries.
func (c *Collector) WalkRouter(addr netip.Addr) (RouterView, error) {
	ri, err := c.fetchRouter(context.Background(), c.client(nil), addr, nil)
	if err != nil {
		return RouterView{}, err
	}
	v := RouterView{Addrs: ri.addrs, ri: ri}
	for _, e := range ri.routes {
		v.Routes = append(v.Routes, RouteView{Prefix: e.prefix, NextHop: e.nextHop, IfIndex: e.ifIndex})
	}
	return v, nil
}

// FirstContactAllocs measures a first-contact fetch of the router at addr:
// the allocations a walk of its columns makes with a callback that keeps
// nothing, and those the fetch makes, walk included.
func (c *Collector) FirstContactAllocs(addr netip.Addr) (walk, fetch float64) {
	ctx, cl := context.Background(), c.client(nil)
	walk = testing.AllocsPerRun(20, func() {
		_ = cl.BulkWalkColumns(ctx, c.name(addr), routerScalars, routerColumns, firstContactRows,
			func(int, snmp.OID, snmp.Value) bool { return true })
	})
	fetch = testing.AllocsPerRun(20, func() { _, _ = c.fetchRouter(ctx, cl, addr, nil) })
	return walk, fetch
}

// Ifaces returns the interface indexes the view holds, in its order.
func (v RouterView) Ifaces() []int {
	out := make([]int, len(v.ri.ifaces))
	for i, f := range v.ri.ifaces {
		out[i] = f.index
	}
	return out
}

// Speed and MAC look an interface up as discovery does.
func (v RouterView) Speed(ifIndex int) float64             { return v.ri.speed(ifIndex) }
func (v RouterView) MAC(ifIndex int) (collector.MAC, bool) { return v.ri.mac(ifIndex) }
