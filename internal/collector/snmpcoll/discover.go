package snmpcoll

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"sync"

	"remos/internal/collector"
	"remos/internal/collector/bridgecoll"
	"remos/internal/conc"
	"remos/internal/mib"
	"remos/internal/obs"
	"remos/internal/snmp"
	"remos/internal/topology"
)

// Collect implements collector.Interface.
func (c *Collector) Collect(q collector.Query) (*collector.Result, error) {
	res, _, err := c.CollectWithStats(q)
	return res, err
}

// CollectWithStats answers a query and reports its SNMP cost — requests
// sent and total round-trip time — which the scalability experiments use
// as the query response time.
func (c *Collector) CollectWithStats(q collector.Query) (*collector.Result, QueryStats, error) {
	ctx := q.Context()
	tr := obs.FromContext(ctx)

	if len(q.Hosts) == 0 {
		return nil, QueryStats{}, fmt.Errorf("snmpcoll: empty query")
	}
	b, _ := c.builds.Get().(*build)
	if b == nil {
		b = c.newBuild()
	}
	defer func() {
		if b.reset() {
			c.builds.Put(b)
		}
	}()
	b.start(ctx, len(q.Hosts))
	// Span names and details are formatted only for a traced query.
	start := func(stage string) *obs.Span {
		if tr == nil {
			return nil
		}
		return tr.Start(c.Name() + ":" + stage)
	}
	sp := start("discover")
	if err := b.discover(q.Hosts); err != nil {
		sp.EndDetail(err.Error())
		return nil, QueryStats{}, err
	}
	if sp != nil {
		sp.EndDetail(fmt.Sprintf("%d routers", len(b.used)))
	}

	// Per-query validation of every cached router involved (reboot and
	// liveness check) — the warm-cache query cost. A router fetched by this
	// very query just answered with its sysUpTime and is not asked again.
	// Devices validate in parallel; the address ordering keeps the
	// reported error (if any) deterministic.
	stale := b.stale[:0]
	for _, v := range b.used {
		if r := b.routers[v]; !r.fresh {
			stale = append(stale, r.ri)
		}
	}
	b.stale = stale
	slices.SortFunc(stale, func(x, y *routerInfo) int { return x.addr.Compare(y.addr) })
	sp = start("validate")
	if len(stale) > 0 {
		if err := conc.ForEachCtx(ctx, len(stale), c.cfg.Parallelism, b.validateItem); err != nil {
			sp.EndDetail(err.Error())
			return nil, QueryStats{}, err
		}
	}
	if sp != nil {
		sp.EndDetail(fmt.Sprintf("%d devices", len(stale)))
	}

	// Annotate utilization from monitoring history, registering any
	// unmonitored links for the poller; registration performs the
	// initial counter read.
	sp = start("annotate")
	cold := b.annotate()
	sp.End()

	res := &collector.Result{Graph: b.graph()}
	if q.WithHistory {
		res.History = c.pred.History().Snapshot()
	}
	if q.WithPredictions {
		res.Predictions = c.pred.Forecasts()
	}
	reqs, rtt := b.meter.Snapshot()
	c.mQueries.Inc()
	if cold {
		c.mCold.Inc()
	}
	if tr != nil {
		tr.Event(c.Name()+":snmp", fmt.Sprintf("%d exchanges, rtt %v", reqs, rtt))
	}
	return res, QueryStats{Requests: reqs, RTT: rtt, ColdStart: cold}, nil
}

// validateAt validates the i-th cached router the query uses.
func (b *build) validateAt(i int) error {
	return b.c.validateRouter(b.ctx, b.cl, b.stale[i])
}

// build accumulates one query's graph. Everything a query learns is kept
// here for the query's duration, so no device is asked the same thing
// twice by one query. A build outlives its query in the collector's pool:
// reset empties it, and the next query reuses its maps and slices instead
// of making its own, so a query allocates its answer and the cache entries
// it creates, not its working state.
//
// A build is made for one collector, and keeps what every query it serves
// uses alike: its SNMP client, metered by its meter, and the funcs its
// fan-outs hand package conc.
//
// The graph is built by number: a queried host's node is its position in
// hosts; a router and its virtual switch take the next two numbers when
// the query first uses the router, and a bridged switch the next one when
// a segment first names it. Nodes and links are joined by these numbers,
// and the answer graph is assembled from them once, when discovery ends.
type build struct {
	ctx   context.Context
	c     *Collector
	cl    *snmp.Client
	meter snmp.Meter // the query's SNMP cost, metered by cl

	// The fan-outs' items, each reading the phase's scratch: fetchAt,
	// arpAt, confirmAt, readAt and validateAt.
	fetchItem, arpItem, confirmItem, readItem, validateItem func(int) error

	nodes  []topology.Node     // by number; a virtual switch not made yet has no ID
	links  []link              // in the order they joined the graph
	linked map[uint64]struct{} // the unordered node pairs links join, see pairKey

	hosts []netip.Addr         // the distinct queried hosts, in query order
	pos   map[netip.Addr]int32 // their positions in hosts
	at    []host               // what the query knows of each, by position
	order []int32              // the query's hosts as positions, in query order, repeats kept

	// What the query knows of routers, and of addresses that are not
	// queried hosts, is kept in short lists searched linearly: a query
	// meets few routers.
	routers   []view     // the router views this query holds, in the order met
	routerErr []failure  // the router fetches that failed this query
	used      []int32    // the views that numbered a router on some path, each once
	joins     []pair     // routers joined to routers, and hosts joined to a second router
	nextHops  []arpEntry // the MACs of addresses that are not queried hosts, latest last

	segs   []bridgecoll.Segment // l2Path's scratch
	chains []chain              // the distinct router chains walked, see routerChain
	hops   []hop                // their routers, and routerChain's scratch past them
	routes []route              // routerChain's memo: which chain a destination takes

	l2gen   bridgecoll.Generation // the bridge database generation l2links and l2nodes belong to
	l2links []int32               // by bridge link number: 1 + the link it was folded into
	l2nodes []int32               // by bridge switch number: 1 + the switch's node
	l2regen bool                  // the graph holds switches numbered under an earlier generation

	// The phases' scratch, each read by one phase only.
	index     map[netip.Addr]int32 // a phase's address -> group, cleared by the phase
	ask       []int32              // discover: the hosts whose gateways are fetched
	gws       []netip.Addr         // gatewaysOf's result
	fetched   []fetched            // fetchGateways: each gateway's outcome
	arpGroups []arpGroup           // resolveMACs: the ARP entries asked of each gateway
	asked     []arpEntry           // resolveMACs' fallbacks, nextHopMAC's Get
	swGroups  []swGroup            // confirm: what is asked of each switch
	moved     []collector.MAC      // confirm: the stations found off their port
	places    []place              // connect: what it knows of each host, in query order
	stale     []*routerInfo        // CollectWithStats: the cached routers to validate
	added     []*pollPoint         // newPoints: the points this query registers, see annotate
	unread    []*pollPoint         // annotate: those confirm could not read
}

// host is what a query knows of one queried host.
type host struct {
	gateway netip.Addr // its configured first-hop router (invalid: none)
	mac     collector.MAC
	hasMAC  bool
	joined  int32 // 1 + the view of the first router it was joined to, 0 none
}

// view is one router view a query holds.
type view struct {
	ri    *routerInfo
	fresh bool  // fetched by this query: already validated
	node  int32 // 1 + the router's node, 0 until the query uses it; its virtual switch's is next
}

// failure is a router fetch that failed.
type failure struct {
	addr netip.Addr
	err  error
}

// pair is one join on the query's short list: routers a < b, by view, or
// the queried host at position -1-a and router b.
type pair struct{ a, b int32 }

// link is one link of the graph being built: the answer's link, its ends
// by node number and where it is polled.
type link struct {
	topology.Link
	from, to int32
	poll     pollReg
}

// poolMax bounds what pooled scratch keeps: a build or request holding a
// map or slice that grew past poolMax entries is dropped, not pooled, so
// the pool keeps what ordinary queries need and one huge query cannot pin
// its maps.
const poolMax = 4096

// newBuild makes an empty build for the collector's queries.
func (c *Collector) newBuild() *build {
	b := &build{c: c}
	b.cl = c.client(&b.meter)
	b.fetchItem, b.arpItem, b.confirmItem, b.readItem, b.validateItem = b.fetchAt, b.arpAt, b.confirmAt, b.readAt, b.validateAt
	return b
}

// start readies an empty build for a query of the given number of hosts,
// sizing what it has to make from it: a host brings itself, about one
// switch and about two links into the graph, and 32 campus hosts walk 12
// distinct chains. The query's exchanges are metered from zero and
// numbered from 1, as a new client's.
func (b *build) start(ctx context.Context, hosts int) {
	b.ctx = ctx
	b.meter = snmp.Meter{}
	b.cl.Rewind()
	if b.pos == nil {
		b.pos = make(map[netip.Addr]int32, hosts)
		b.linked = make(map[uint64]struct{}, 2*hosts)
		b.index = make(map[netip.Addr]int32)
	}
	b.nodes = slices.Grow(b.nodes, 2*hosts)
	b.links = slices.Grow(b.links, 2*hosts)
	b.hosts = slices.Grow(b.hosts, hosts)
	b.at = slices.Grow(b.at, hosts)
	b.order = slices.Grow(b.order, hosts)
	b.chains = slices.Grow(b.chains, hosts/2)
	b.hops = slices.Grow(b.hops, 2*hosts)
	b.routes = slices.Grow(b.routes, hosts/2)
}

// reset empties the build after its query — every map cleared, every
// slice cleared and truncated, so the pool keeps no query's context,
// graph, router or poll point alive — and reports whether it may go back
// to the pool: not when anything in it grew past poolMax. The bridge
// generation is forgotten with the numbers kept under it, which name links
// and nodes of the last query's graph. The groups keep their entry slices
// for the next query.
func (b *build) reset() (pool bool) {
	b.ctx = nil
	b.l2gen, b.l2regen = bridgecoll.Generation{}, false
	most := 0
	for i := range b.arpGroups {
		most = max(most, cap(b.arpGroups[i].entries))
		b.arpGroups[i].ri = nil
	}
	for i := range b.swGroups {
		g := &b.swGroups[i]
		most = max(most, cap(g.stations), cap(g.points))
		clear(g.points)
	}
	b.arpGroups, b.swGroups = b.arpGroups[:0], b.swGroups[:0]
	most = max(most, cap(b.arpGroups), cap(b.swGroups), empty(b.pos), empty(b.linked), empty(b.index),
		truncate(&b.nodes), truncate(&b.links), truncate(&b.hosts), truncate(&b.at), truncate(&b.order),
		truncate(&b.routers), truncate(&b.routerErr), truncate(&b.used), truncate(&b.joins),
		truncate(&b.nextHops), truncate(&b.segs), truncate(&b.chains), truncate(&b.hops),
		truncate(&b.routes), truncate(&b.l2links), truncate(&b.l2nodes), truncate(&b.ask),
		truncate(&b.gws), truncate(&b.fetched), truncate(&b.asked), truncate(&b.moved),
		truncate(&b.places), truncate(&b.stale), truncate(&b.added), truncate(&b.unread))
	return most <= poolMax
}

// empty clears a map and returns how many entries it held.
func empty[M ~map[K]V, K comparable, V any](m M) int {
	n := len(m)
	clear(m)
	return n
}

// truncate clears a slice and cuts it to length 0, and returns its capacity.
func truncate[S ~[]E, E any](s *S) int {
	clear(*s)
	*s = (*s)[:0]
	return cap(*s)
}

// chain is one distinct router chain a query walked, and how far the
// query has joined it into the graph.
type chain struct {
	hops    []hop // the routers, gateway first
	joined  bool  // its router hops are in the graph
	lastSrc int32 // 1 + the position of the source last attached to its first router
}

// hop is one router of a chain: the address the walk reached it by, and
// the query's view of it.
type hop struct {
	addr netip.Addr
	view int32
}

// route remembers the chain a walk from start toward dst took. Every
// router on it chose its route by longest-prefix match over prefixes no
// longer than bits, so any IPv4 destination equal to dst in its first bits
// bits matches the same route at every hop and takes the same chain.
type route struct {
	start, dst uint32 // IPv4 addresses, big-endian
	bits       int32
	chain      int32 // index into build.chains
}

// ip4 returns an IPv4 address as a number.
func ip4(a netip.Addr) (uint32, bool) {
	if !a.Is4() {
		return 0, false
	}
	a4 := a.As4()
	return binary.BigEndian.Uint32(a4[:]), true
}

// pollReg is where a link is polled: the device interface, and the node
// numbers at the polled port's end (from) and the other.
type pollReg struct {
	agent       netip.Addr // invalid: the link is not measured
	ifIndex     int
	from, to    int32
	outIsFromTo bool
}

// discover builds the graph joining the queried hosts, in phases whose
// work is linear in the hosts and whose SNMP traffic is one request per
// device and phase: place the hosts, fetch their gateway routers, resolve
// every host's MAC at its gateway, connect the hosts on the Bridge
// Collector's believed station locations, then confirm those locations,
// each switch asked in one Get that also reads the counter baselines of
// its new poll points. A station found moved costs the re-walk of the
// bridges and a second connect, on the corrected database.
func (b *build) discover(hosts []netip.Addr) error {
	b.place(hosts)
	ask := b.ask[:0]
	for p := range int32(len(b.hosts)) {
		// Without a bridge no MAC is resolved: every pair is routed,
		// through the hosts' gateways, and no station is confirmed.
		if b.c.cfg.Bridge == nil {
			ask = append(ask, p)
		} else if _, known := b.hostMAC(p); !known {
			ask = append(ask, p)
		}
	}
	b.ask = ask
	if b.c.cfg.Bridge == nil {
		if len(b.hosts) > 1 {
			b.fetchGateways(ask)
		}
		return b.connectUnconfirmed()
	}
	b.fetchGateways(ask)
	b.resolveMACs(ask)
	gen := b.c.cfg.Bridge.Generation()
	if err := b.connect(); err != nil {
		return err
	}
	if rebuild, err := b.confirm(gen); err != nil || !rebuild {
		return err
	}
	b.rollback()
	return b.connectUnconfirmed()
}

// connectUnconfirmed connects the hosts with no confirm to follow:
// annotate reads every new point's baseline.
func (b *build) connectUnconfirmed() error {
	if err := b.connect(); err != nil {
		return err
	}
	b.newPoints()
	return nil
}

// place numbers the queried hosts: each distinct one takes the next
// position, and its node that number.
func (b *build) place(hosts []netip.Addr) {
	for _, h := range hosts {
		p, dup := b.pos[h]
		if !dup {
			p = int32(len(b.hosts))
			b.pos[h] = p
			b.hosts = append(b.hosts, h)
			gw, _ := b.c.cfg.GatewayOf(h)
			b.at = append(b.at, host{gateway: gw})
			id := b.c.name(h)
			b.nodes = append(b.nodes, topology.Node{ID: id, Kind: topology.HostNode, Addr: id})
		}
		b.order = append(b.order, p)
	}
}

// graph assembles the answer from what the build made, into slabs the
// answer keeps: every node but the virtual switches never used, and every
// link, in order.
func (b *build) graph() *topology.Graph {
	nodes := make([]topology.Node, 0, len(b.nodes))
	for _, n := range b.nodes {
		if n.ID != "" {
			nodes = append(nodes, n)
		}
	}
	links := make([]topology.Link, len(b.links))
	for i := range b.links {
		links[i] = b.links[i].Link
	}
	return topology.Assemble(nodes, links)
}

// rollback drops what connect built on station locations confirm found
// stale: every node but the hosts', every link and join, and the new
// points with the baselines confirm read for them. The hosts stay placed,
// their MACs resolved and their routers fetched, for connect to start
// again.
func (b *build) rollback() {
	clear(b.nodes[len(b.hosts):])
	b.nodes = b.nodes[:len(b.hosts)]
	for i := range b.routers {
		b.routers[i].node = 0
	}
	for i := range b.at {
		b.at[i].joined = 0
	}
	b.l2gen, b.l2regen = bridgecoll.Generation{}, false
	clear(b.linked)
	truncate(&b.links)
	truncate(&b.joins)
	truncate(&b.used)
	truncate(&b.chains)
	truncate(&b.hops)
	truncate(&b.routes)
	truncate(&b.l2links)
	truncate(&b.l2nodes)
	truncate(&b.added)
}

// fetchGateways loads the distinct configured gateways of the hosts at the
// given positions, in first-seen order, concurrently, ahead of the serial
// path following. A failure is remembered, not reported: the path that
// needs the router reports it with its context.
func (b *build) fetchGateways(hosts []int32) {
	gws := b.gatewaysOf(hosts)
	out := slices.Grow(b.fetched[:0], len(gws))[:len(gws)]
	clear(out)
	b.fetched = out
	// Per-item errors land in out; an expired ctx resurfaces at the next exchange.
	conc.ForEachCtx(b.ctx, len(gws), b.c.cfg.Parallelism, b.fetchItem)
	for i, r := range out {
		if r.err != nil {
			b.routerErr = append(b.routerErr, failure{gws[i], r.err})
		} else {
			b.adopt(r.ri, r.fresh)
		}
	}
}

// fetchAt fetches the i-th gateway gatewaysOf found.
func (b *build) fetchAt(i int) error {
	r := &b.fetched[i]
	r.ri, r.fresh, r.err = b.c.routerFor(b.ctx, b.cl, b.gws[i])
	return nil
}

// gatewaysOf returns the distinct configured gateways of the hosts at the
// given positions, in first-seen order.
func (b *build) gatewaysOf(hosts []int32) []netip.Addr {
	clear(b.index)
	gws := b.gws[:0]
	for _, p := range hosts {
		if gw := b.at[p].gateway; gw.IsValid() {
			if _, seen := b.index[gw]; !seen {
				b.index[gw] = int32(len(gws))
				gws = append(gws, gw)
			}
		}
	}
	b.gws = gws
	return gws
}

// fetched is one fetchGateways outcome.
type fetched struct {
	ri    *routerInfo
	fresh bool
	err   error
}

// adopt makes a router view this query's view of every address the router
// holds, and returns its number.
func (b *build) adopt(ri *routerInfo, fresh bool) int32 {
	for i := range b.routers {
		if r := &b.routers[i]; r.ri == ri {
			r.fresh = r.fresh || fresh
			return int32(i)
		}
	}
	b.routers = append(b.routers, view{ri: ri, fresh: fresh})
	return int32(len(b.routers) - 1)
}

// viewOf returns the number of this query's view of the router at addr,
// -1 for none. Of two views holding the address, the later adopted is it.
func (b *build) viewOf(addr netip.Addr) int32 {
	for i := len(b.routers) - 1; i >= 0; i-- {
		if slices.Contains(b.routers[i].ri.addrs, addr) {
			return int32(i)
		}
	}
	return -1
}

// router returns the number of this query's view of the router at addr,
// loading it on first mention.
func (b *build) router(addr netip.Addr) (int32, error) {
	if v := b.viewOf(addr); v >= 0 {
		return v, nil
	}
	for _, f := range b.routerErr {
		if f.addr == addr {
			return -1, f.err
		}
	}
	ri, fresh, err := b.c.routerFor(b.ctx, b.cl, addr)
	if err != nil {
		b.routerErr = append(b.routerErr, failure{addr, err})
		return -1, err
	}
	return b.adopt(ri, fresh), nil
}

// hostMAC returns the MAC this query holds for the queried host at
// position p, or the one in the collector's ARP cache (see cachedMAC).
func (b *build) hostMAC(p int32) (collector.MAC, bool) {
	st := &b.at[p]
	if !st.hasMAC {
		b.c.mu.Lock()
		st.mac, st.hasMAC = b.c.arp[b.hosts[p]]
		b.c.mu.Unlock()
	}
	return st.mac, st.hasMAC
}

// listedMAC returns the MAC on the query's next-hop list for an address.
func (b *build) listedMAC(ip netip.Addr) (collector.MAC, bool) {
	for i := len(b.nextHops) - 1; i >= 0; i-- {
		if e := &b.nextHops[i]; e.ip == ip {
			return e.mac, true
		}
	}
	return collector.MAC{}, false
}

// cachedMAC returns the MAC this query already holds for an address, or
// the one in the collector's ARP cache — part of its static state (dropped
// by DropCaches, kept by DropDynamic).
func (b *build) cachedMAC(ip netip.Addr) (collector.MAC, bool) {
	if p, ok := b.pos[ip]; ok {
		return b.hostMAC(p)
	}
	if mac, ok := b.listedMAC(ip); ok {
		return mac, ok
	}
	b.c.mu.Lock()
	mac, ok := b.c.arp[ip]
	b.c.mu.Unlock()
	if ok {
		b.nextHops = append(b.nextHops, arpEntry{ip: ip, mac: mac, found: true})
	}
	return mac, ok
}

// learn records the MACs found for the given ARP entries, for this query
// and in the collector's ARP cache.
func (b *build) learn(entries []arpEntry) {
	b.c.mu.Lock()
	defer b.c.mu.Unlock()
	for _, e := range entries {
		if !e.found {
			continue
		}
		b.c.arp[e.ip] = e.mac
		p, queried := e.host-1, e.host != 0
		if !queried {
			p, queried = b.pos[e.ip]
		}
		if queried {
			b.at[p].mac, b.at[p].hasMAC = e.mac, true
		} else {
			b.nextHops = append(b.nextHops, e)
		}
	}
}

// arpEntry names one row of a router's ipNetToMediaTable, and what asking
// for it found.
type arpEntry struct {
	ifIndex int
	ip      netip.Addr
	host    int32 // 1 + the position of the queried host at ip, 0 if unknown
	mac     collector.MAC
	found   bool
}

// request is the scratch one Get's names are built in: the OIDs, carved
// from one arena. Queries and the poller draw it from reqPool.
type request struct {
	oids  []snmp.OID
	arena snmp.OIDArena
}

var reqPool = sync.Pool{New: func() any { return new(request) }}

// withRequest hands fn an empty request whose arena has room for subIDs
// sub-identifiers, and pools it again after fn unless it grew past
// poolMax.
func withRequest(subIDs int, fn func(r *request)) {
	r := reqPool.Get().(*request)
	r.oids, r.arena = r.oids[:0], slices.Grow(r.arena[:0], subIDs)
	fn(r)
	if r.poolable() {
		reqPool.Put(r)
	}
}

// poolable reports whether the request is small enough to pool again.
func (r *request) poolable() bool { return max(cap(r.oids), cap(r.arena)) <= poolMax }

// getEach reads the given objects from one agent, as many per Get as
// MaxVarBinds allows, and shows fn every object the agent answered for by
// name, by its position in oids, while the response its value came in is
// alive: fn copies out what it keeps. An object answered under another
// name, and every object of a failed exchange, is not shown.
func (b *build) getEach(agent netip.Addr, oids []snmp.OID, fn func(i int, v snmp.Value)) {
	per := b.c.maxVarBinds()
	addr := b.c.name(agent)
	for lo := 0; lo < len(oids); lo += per {
		chunk := oids[lo:min(lo+per, len(oids))]
		_ = b.cl.GetFunc(b.ctx, addr, chunk, func(vbs []snmp.VarBind) { // a failed exchange shows nothing
			if len(vbs) != len(chunk) {
				return
			}
			for k, vb := range vbs {
				if vb.Name.Cmp(chunk[k]) == 0 {
					fn(lo+k, vb.Value)
				}
			}
		})
	}
}

// arpGet reads the given ARP entries from the router at via, marking those
// it holds found, with their MACs.
func (b *build) arpGet(via netip.Addr, entries []arpEntry) {
	withRequest(len(entries)*(len(mib.IPNetToMediaPhys)+5), func(r *request) {
		for _, e := range entries {
			ip4 := e.ip.As4()
			r.oids = append(r.oids, r.arena.Append(mib.IPNetToMediaPhys, uint32(e.ifIndex),
				uint32(ip4[0]), uint32(ip4[1]), uint32(ip4[2]), uint32(ip4[3])))
		}
		b.getEach(via, r.oids, func(i int, v snmp.Value) {
			entries[i].mac, entries[i].found = collector.MACFromBytes(v.Bytes)
		})
	})
}

// appendNextHops extends entries, up to limit, with the ARP entries of the
// router's next hops whose MACs are not known yet: a router asked for
// anything from its ARP table is asked for its neighbours in the same Get,
// so the paths that later leave it need not ask again.
func (b *build) appendNextHops(entries []arpEntry, ri *routerInfo, limit int) []arpEntry {
	for _, e := range ri.routes {
		if len(entries) >= limit {
			break
		}
		if !e.nextHop.IsValid() || slices.ContainsFunc(entries, func(x arpEntry) bool { return x.ip == e.nextHop }) {
			continue
		}
		if _, known := b.cachedMAC(e.nextHop); !known {
			entries = append(entries, arpEntry{ifIndex: e.ifIndex, ip: e.nextHop})
		}
	}
	return entries
}

// extend lengthens s by one element and returns it, reusing the element a
// previous query left past s's length (slices inside it included) when
// there is one.
func extend[T any](s []T) ([]T, *T) {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
	} else {
		var zero T
		s = append(s, zero)
	}
	return s, &s[len(s)-1]
}

// arpGroup is the ARP entries resolveMACs asks of one gateway.
type arpGroup struct {
	gw      netip.Addr
	ri      *routerInfo
	entries []arpEntry
}

// resolveMACs resolves the MACs of the hosts at the given positions: one
// ipNetToMedia Get per gateway router for all the hosts behind it (the
// router's next hops fill the PDU's spare room), configuration for
// whatever that leaves. What it learns joins the collector's ARP cache.
func (b *build) resolveMACs(hosts []int32) {
	per := b.c.maxVarBinds()
	clear(b.index) // gateway -> index in groups
	groups := b.arpGroups[:0]
	for _, p := range hosts {
		gw := b.at[p].gateway
		v := b.viewOf(gw) // loaded by fetchGateways, or unreachable, or no gateway
		if v < 0 {
			continue
		}
		ri := b.routers[v].ri
		e, ok := ri.lpm(b.hosts[p])
		if !ok {
			continue
		}
		i, seen := b.index[gw]
		if !seen {
			i = int32(len(groups))
			b.index[gw] = i
			var g *arpGroup
			groups, g = extend(groups)
			g.gw, g.ri, g.entries = gw, ri, slices.Grow(g.entries[:0], per)
		}
		groups[i].entries = append(groups[i].entries, arpEntry{ifIndex: e.ifIndex, ip: b.hosts[p], host: p + 1})
	}
	b.arpGroups = groups
	for i := range groups {
		g := &groups[i]
		g.entries = b.appendNextHops(g.entries, g.ri, (len(g.entries)+per-1)/per*per)
	}
	// arpGet leaves what it could not read unfound; configuration covers it below.
	conc.ForEachCtx(b.ctx, len(groups), b.c.cfg.Parallelism, b.arpItem)
	for _, g := range groups {
		b.learn(g.entries)
	}
	if b.c.cfg.ResolveMAC != nil {
		fallback := b.asked[:0]
		for _, p := range hosts {
			if !b.at[p].hasMAC {
				if m, ok := b.c.cfg.ResolveMAC(b.hosts[p]); ok {
					fallback = append(fallback, arpEntry{ip: b.hosts[p], host: p + 1, mac: m, found: true})
				}
			}
		}
		b.asked = fallback
		b.learn(fallback)
	}
}

// arpAt asks the i-th gateway resolveMACs grouped for its ARP entries.
func (b *build) arpAt(i int) error {
	g := &b.arpGroups[i]
	b.arpGet(g.gw, g.entries)
	return nil
}

// station is one queried station confirm asks a switch about.
type station struct {
	mac   collector.MAC
	port  int
	moved bool
}

// swGroup is what confirm asks of one switch: the forwarding entries of
// the queried stations believed attached to it, and the counters of the
// new poll points on it.
type swGroup struct {
	sw       netip.Addr
	stations []station
	points   []*pollPoint
}

// confirm performs the per-query host location check through the Bridge
// Collector, after connect built the graph on the locations it checks: one
// Get per switch of the forwarding entries of all the queried stations
// believed attached to it, carrying the baseline reads of the switch's new
// poll points too. Stations found off their believed port (or not answered
// for) have moved; one re-walk of the bridges then resynchronizes the
// Bridge Collector's database for all of them. A counter varbind never
// reads as a move: a point confirm could not read is left to annotate.
// Stations the database does not know are outside the bridged domain and
// are left alone. confirm reports whether the graph must be built again:
// when a station moved, and when the database is no longer generation
// gen, the one connect began on — another query re-walked the bridges,
// so what connect read may be stale while what confirm checked is not.
func (b *build) confirm(gen bridgecoll.Generation) (bool, error) {
	b.newPoints()
	br := b.c.cfg.Bridge
	clear(b.index) // switch -> index in groups
	groups := b.swGroups[:0]
	for _, h := range b.at {
		if !h.hasMAC {
			continue
		}
		mac := h.mac
		sw, port, known := br.Locate(mac)
		if !known {
			continue
		}
		i, seen := b.index[sw]
		if !seen {
			i = int32(len(groups))
			b.index[sw] = i
			var g *swGroup
			groups, g = extend(groups)
			g.sw, g.stations, g.points = sw, g.stations[:0], g.points[:0]
		}
		groups[i].stations = append(groups[i].stations, station{mac: mac, port: port, moved: true})
	}
	for _, p := range b.added {
		if i, ok := b.index[p.agent]; ok {
			groups[i].points = append(groups[i].points, p)
		}
	}
	b.swGroups = groups
	// A failed exchange marks its stations moved; the re-walk reports a dead switch.
	conc.ForEachCtx(b.ctx, len(groups), b.c.cfg.Parallelism, b.confirmItem)
	moved := b.moved[:0]
	for _, g := range groups {
		for _, st := range g.stations {
			if st.moved {
				moved = append(moved, st.mac)
			}
		}
	}
	b.moved = moved
	if len(moved) == 0 {
		return br.Generation() != gen, nil
	}
	return true, br.SearchStations(moved)
}

// confirmAt asks the i-th switch confirm grouped.
func (b *build) confirmAt(i int) error {
	b.confirmSwitch(&b.swGroups[i])
	return nil
}

// confirmSwitch asks one switch for its group's forwarding entries and
// then the high-capacity counter pairs of its new points, in as few Gets
// as MaxVarBinds allows. A station is confirmed by its believed port; a
// point answered with two Counter64s has its baseline, one answered under
// the names asked with anything else is settled on Counter32 for annotate
// to read, and one not answered stays probing.
func (b *build) confirmSwitch(g *swGroup) {
	ns := len(g.stations)
	withRequest(ns*(len(mib.Dot1dTpFdbPort)+len(collector.MAC{}))+2*len(g.points)*pollOIDLen, func(r *request) {
		for _, st := range g.stations {
			r.oids = append(r.oids, r.arena.Append(mib.Dot1dTpFdbPort, st.mac.OIDSuffix()...))
		}
		for _, p := range g.points {
			r.oids = p.pollOIDs(r.oids, &r.arena)
		}
		now := b.c.cfg.Sched.Now()
		var in snmp.Value // the in-counter answered at position inAt
		inAt := -1
		b.getEach(g.sw, r.oids, func(k int, v snmp.Value) {
			if k < ns {
				st := &g.stations[k]
				st.moved = v.Kind != snmp.KindInteger || int(v.Int) != st.port
				return
			}
			if (k-ns)%2 == 0 {
				in, inAt = v, k
				return
			}
			if inAt != k-1 {
				return
			}
			p := g.points[(k-ns)/2]
			if cin, cout, res := p.counterPair(in, v); res == readOK {
				b.c.applyDelta(p, cin, cout, now)
			}
		})
	})
}

// place is what connect knows of a host at one place in the query's
// order. domain 0 is none.
type place struct {
	domain                      int32
	firstOfDomain, firstOfGroup bool
	routedLater                 bool  // some later host is outside this one's domain
	lastRouter                  int32 // 1 + the view of the router last attached to as a destination
}

// connect joins the queried hosts. The graph wanted is the union of the
// paths between all pairs, but almost every pair adds nothing new, and
// which do is known without visiting them:
//
// Inside one broadcast domain the bridged topology is a tree, and the
// union of all pairwise paths of a tree is the union of the paths from one
// of its nodes to each of the others — so the first queried host of a
// domain is joined to every other one, and no two later ones to each
// other.
//
// Across domains a pair is joined by src — src's gateway — the router
// chain toward dst — dst. The chain depends on src only through its
// gateway, so of the hosts sharing a domain and a gateway only the first
// walks the chains (to every later host outside its domain); the others
// have nothing to add but their own attachment to that gateway.
//
// Hosts the Bridge Collector cannot place (no MAC, or not a known station)
// have no domain: they are routed to everybody, and grouped by gateway
// alone.
//
// Pairs are visited in query order, a host named twice included, so each
// link is first added — and takes its orientation and poll point — by the
// same path as in a walk over all pairs.
func (b *build) connect() error {
	order := b.order
	n := len(order)
	type group struct {
		domain  int32
		gateway netip.Addr
	}
	at := slices.Grow(b.places[:0], n)[:n]
	clear(at)
	b.places = at
	// A query meets few domains and gateways: they are remembered in
	// lists, searched linearly.
	var domainBuf [8]int32
	var groupBuf [8]group
	domains, groups := domainBuf[:0], groupBuf[:0]
	for i, p := range order {
		pl, h := &at[i], &b.at[p]
		if h.hasMAC && b.c.cfg.Bridge != nil {
			d, _ := b.c.cfg.Bridge.Domain(h.mac)
			pl.domain = int32(d)
		}
		if d := pl.domain; d != 0 && !slices.Contains(domains, d) {
			domains, pl.firstOfDomain = append(domains, d), true
		}
		if g := (group{pl.domain, h.gateway}); !slices.Contains(groups, g) {
			groups, pl.firstOfGroup = append(groups, g), true
		}
	}
	sameDomain := func(i, j int) bool { return at[i].domain != 0 && at[i].domain == at[j].domain }
	// after is the common domain of the hosts behind i: -1 none yet, 0
	// several (or a host without one).
	for i, after := n-1, int32(-1); i >= 0; i-- {
		d := at[i].domain
		at[i].routedLater = after != -1 && (after == 0 || after != d)
		if after == -1 {
			after = d
		} else if after != d {
			after = 0
		}
	}

	for i, src := range order {
		if !at[i].firstOfGroup {
			if at[i].routedLater {
				if err := b.attachToGateway(src); err != nil {
					return fmt.Errorf("snmpcoll: attaching %v: %w", b.hosts[src], err)
				}
			}
			continue
		}
		for j := i + 1; j < n; j++ {
			dst := order[j]
			if sameDomain(i, j) {
				if !at[i].firstOfDomain {
					continue
				}
				if segs, err := b.l2Path(b.at[src].mac, b.at[dst].mac); err == nil {
					b.addL2Segments(segs, src, dst)
					continue
				}
				// The bridge database changed under the query: route.
			}
			if err := b.addRoutedPath(src, dst, &at[j].lastRouter); err != nil {
				return fmt.Errorf("snmpcoll: path %v-%v: %w", b.hosts[src], b.hosts[dst], err)
			}
		}
	}
	return nil
}

// attachToGateway joins the host at position h to its configured
// first-hop router.
func (b *build) attachToGateway(h int32) error {
	gw := b.at[h].gateway
	if !gw.IsValid() {
		return fmt.Errorf("no gateway configured for %v", b.hosts[h])
	}
	v, err := b.useRouter(gw)
	if err != nil {
		return err
	}
	b.attachHostToRouter(h, hop{gw, v})
	return nil
}

// addRoutedPath adds the routed path between the hosts at positions src
// and dst: src to its gateway, the router chain from there toward dst, dst
// to the chain's last router — each join only when neither the chain nor
// *dstAt (1 + the view of the router dst was last attached to) shows it
// made. The joins left may still be made: chains share hops, and a host is
// a source and a destination.
func (b *build) addRoutedPath(src, dst int32, dstAt *int32) error {
	gw := b.at[src].gateway
	if !gw.IsValid() {
		return fmt.Errorf("no gateway configured for %v", b.hosts[src])
	}
	ch, err := b.routerChain(gw, b.hosts[dst])
	if err != nil {
		return err
	}
	// Attach src to the first router over level 2.
	if ch.lastSrc != src+1 {
		b.attachHostToRouter(src, ch.hops[0])
		ch.lastSrc = src + 1
	}
	// Router-to-router hops.
	if !ch.joined {
		for i := 0; i+1 < len(ch.hops); i++ {
			if err := b.addRouterHop(ch.hops[i], ch.hops[i+1], b.hosts[dst]); err != nil {
				return err
			}
		}
		ch.joined = true
	}
	// Attach dst to the last router.
	last := ch.hops[len(ch.hops)-1]
	if *dstAt == last.view+1 {
		return nil
	}
	*dstAt = last.view + 1
	b.attachHostToRouter(dst, last)
	return nil
}

// addNode numbers a node.
func (b *build) addNode(n topology.Node) int32 {
	b.nodes = append(b.nodes, n)
	return int32(len(b.nodes) - 1)
}

// pairKey is the map key of the unordered pair of nodes a and b.
func pairKey(a, b int32) uint64 {
	return uint64(uint32(min(a, b)))<<32 | uint64(uint32(max(a, b)))
}

// ensureLink adds a link between nodes from and to once per unordered
// pair, polled as reg says. It returns the link's number, or -1 when the
// graph already joined the pair.
func (b *build) ensureLink(from, to int32, capacity float64, reg pollReg) int {
	k := pairKey(from, to)
	if _, ok := b.linked[k]; ok {
		return -1
	}
	b.linked[k] = struct{}{}
	b.links = append(b.links, link{
		Link: topology.Link{From: b.nodes[from].ID, To: b.nodes[to].ID, Capacity: capacity},
		from: from, to: to, poll: reg,
	})
	return len(b.links) - 1
}

// routerChain follows routes hop-to-hop from the start router toward dst
// and returns the query's one copy of the chain of routers traversed,
// valid until the next call. The host pairs of a query walk few distinct
// chains (one per pair of gateways), so each is stored once and shared by
// every (start, dst) it serves, and so is what has been joined through it.
// A chain is walked once per start and destination prefix: see route.
func (b *build) routerChain(start, dst netip.Addr) (*chain, error) {
	from, okFrom := ip4(start)
	to, okTo := ip4(dst)
	memo := okFrom && okTo
	if memo {
		for _, r := range b.routes {
			if r.start == from && (r.dst^to)>>(32-r.bits) == 0 {
				return &b.chains[r.chain], nil
			}
		}
	}
	base := len(b.hops)
	walked := b.hops // the walk goes past the stored chains, kept if new
	bits := int32(0)
	for cur := start; ; {
		if len(walked)-base > 32 {
			return nil, fmt.Errorf("route loop toward %v", dst)
		}
		v, err := b.useRouter(cur)
		if err != nil {
			return nil, err
		}
		walked = append(walked, hop{cur, v})
		ri := b.routers[v].ri
		bits = max(bits, int32(ri.longest))
		e, ok := ri.lpm(dst)
		if !ok {
			return nil, fmt.Errorf("router %v has no route to %v", cur, dst)
		}
		if !e.nextHop.IsValid() {
			break // directly connected: dst is on this router's segment
		}
		cur = e.nextHop
	}
	hops := walked[base:len(walked):len(walked)]
	i := slices.IndexFunc(b.chains, func(ch chain) bool { return slices.Equal(ch.hops, hops) })
	if i >= 0 {
		b.hops = walked[:base]
	} else {
		i = len(b.chains)
		b.hops = walked
		b.chains = append(b.chains, chain{hops: hops})
	}
	if memo {
		b.routes = append(b.routes, route{start: from, dst: to, bits: bits, chain: int32(i)})
	}
	return &b.chains[i], nil
}

// useRouter ensures the router at addr is loaded, validated and in the
// graph, and returns the number of its view. The graph node is keyed by
// the router's canonical identity (sysName), so a router reached under
// several of its addresses, or held in two views, appears once, carrying
// the address it was first reached by; its number is followed by its
// virtual switch's, made on first use.
func (b *build) useRouter(addr netip.Addr) (int32, error) {
	v, err := b.router(addr)
	if err != nil {
		return -1, err
	}
	if b.routers[v].node != 0 {
		return v, nil
	}
	id := b.routers[v].ri.nodeID()
	for _, r := range b.routers {
		if r.node != 0 && b.nodes[r.node-1].ID == id {
			b.routers[v].node = r.node
			return v, nil
		}
	}
	b.used = append(b.used, v)
	b.routers[v].node = b.addNode(topology.Node{ID: id, Kind: topology.RouterNode, Addr: b.c.name(addr)}) + 1
	b.addNode(topology.Node{})
	return v, nil
}

// attachHostToRouter adds the connection of the host at position h to the
// router at r: through the Bridge Collector's level-2 path when available
// (using the router's own interface MAC on the host's segment, from its
// ifPhysAddress table), otherwise through a virtual switch — the paper's
// representation for shared Ethernets and segments the collector cannot
// see inside. A host is joined to a router once.
func (b *build) attachHostToRouter(h int32, r hop) {
	st := &b.at[h]
	switch {
	case st.joined == 0:
		st.joined = r.view + 1
	case st.joined == r.view+1 || slices.Contains(b.joins, pair{-1 - h, r.view}):
		return
	default:
		b.joins = append(b.joins, pair{-1 - h, r.view})
	}
	ri, rtr := b.routers[r.view].ri, b.routers[r.view].node-1
	e, routed := ri.lpm(b.hosts[h])
	if b.c.cfg.Bridge != nil && routed {
		if mr, okR := ri.mac(e.ifIndex); st.hasMAC && okR {
			if segs, err := b.l2Path(st.mac, mr); err == nil {
				b.addL2Segments(segs, h, rtr)
				return
			}
		}
	}
	// Virtual switch fallback: host -- vswitch -- router, capacity from
	// the router's interface speed toward the host.
	speed := 0.0
	if routed {
		speed = ri.speed(e.ifIndex)
	}
	vs := rtr + 1
	if b.nodes[vs].ID == "" {
		b.nodes[vs] = topology.Node{ID: "v:" + b.nodes[rtr].ID, Kind: topology.VirtualNode}
	}
	b.ensureLink(h, vs, speed, pollReg{})
	// Router side of the virtual switch is pollable on the router.
	var reg pollReg
	if routed {
		reg = pollReg{agent: r.addr, ifIndex: e.ifIndex, from: rtr, to: vs, outIsFromTo: true}
	}
	b.ensureLink(rtr, vs, speed, reg)
}

// l2Path asks the Bridge Collector for the level-2 path between two
// stations. The segments live in the build's scratch until the next call:
// addL2Segments folds them into the graph right away. A path from a new
// generation of the bridge database drops the numbers kept under the last
// one, which have changed.
func (b *build) l2Path(from, to collector.MAC) ([]bridgecoll.Segment, error) {
	segs, gen, err := b.c.cfg.Bridge.AppendPath(b.segs[:0], from, to)
	b.segs = segs[:0]
	if gen != b.l2gen {
		b.l2regen = b.l2regen || len(b.l2nodes) > 0
		b.l2gen = gen
		b.l2links = slices.Grow(b.l2links[:0], gen.Links())[:gen.Links()]
		clear(b.l2links)
		b.l2nodes = slices.Grow(b.l2nodes[:0], gen.Switches())[:gen.Switches()]
		clear(b.l2nodes)
	}
	return segs, err
}

// switchNode returns the node of the bridged switch the generation l2gen
// numbers k, numbering it on first mention. A graph begun under an earlier
// generation may hold it already, under that generation's number: then it
// is found by its ID.
func (b *build) switchNode(k int32, id string) int32 {
	if n := b.l2nodes[k]; n != 0 {
		return n - 1
	}
	n := int32(-1)
	if b.l2regen {
		n = int32(slices.IndexFunc(b.nodes, func(x topology.Node) bool { return x.Kind == topology.SwitchNode && x.ID == id }))
	}
	if n < 0 {
		n = b.addNode(topology.Node{ID: id, Kind: topology.SwitchNode, Addr: id})
	}
	b.l2nodes[k] = n + 1
	return n
}

// addL2Segments folds Bridge Collector path segments into the graph,
// from node from to node to, numbering the switches between and
// registering each segment's poll point. A bridge link is folded in once:
// a segment whose link is already in the graph between the same two nodes
// is passed by.
func (b *build) addL2Segments(segs []bridgecoll.Segment, from, to int32) {
	for i, s := range segs {
		f, t := from, to
		if i > 0 {
			f = b.switchNode(s.From, s.FromID)
		}
		if i < len(segs)-1 {
			t = b.switchNode(s.To, s.ToID)
		}
		if n := b.l2links[s.Link]; n != 0 {
			if l := &b.links[n-1]; l.from == f && l.to == t || l.from == t && l.to == f {
				continue
			}
		}
		reg := pollReg{
			agent:   s.PollSwitch,
			ifIndex: s.PollPort,
			from:    f,
			to:      t,
			// When the polled port is at the From end, its out
			// octets measure From->To.
			outIsFromTo: s.PollIsFrom,
		}
		if l := b.ensureLink(f, t, s.Capacity, reg); l >= 0 {
			b.l2links[s.Link] = int32(l + 1)
		}
	}
}

// addRouterHop connects two adjacent routers: through the bridged segment
// between them when the Bridge Collector covers it (the egress interface
// MAC comes from the router's own ifPhysAddress, the next hop's from the
// router's ARP table), otherwise as a direct link. The egress interface
// speed gives the capacity and the egress interface is the poll point.
func (b *build) addRouterHop(a, c hop, dst netip.Addr) error {
	key := pair{min(a.view, c.view), max(a.view, c.view)}
	if slices.Contains(b.joins, key) {
		return nil
	}
	riA := b.routers[a.view].ri
	e, ok := riA.lpm(dst)
	if !ok {
		return fmt.Errorf("router %v lost its route to %v", a.addr, dst)
	}
	b.joins = append(b.joins, key)
	from, to := b.routers[a.view].node-1, b.routers[c.view].node-1
	if b.c.cfg.Bridge != nil {
		ma, okA := riA.mac(e.ifIndex)
		mb, okB := b.nextHopMAC(a.addr, riA, e.ifIndex, c.addr)
		if okA && okB {
			if segs, err := b.l2Path(ma, mb); err == nil {
				b.addL2Segments(segs, from, to)
				return nil
			}
		}
	}
	reg := pollReg{agent: a.addr, ifIndex: e.ifIndex, from: from, to: to, outIsFromTo: true}
	b.ensureLink(from, to, riA.speed(e.ifIndex), reg)
	return nil
}

// nextHopMAC resolves the MAC of target, a next hop of the router at via
// out of interface ifIndex, from that router's ARP table (unless the
// router already said, when it resolved hosts for this query).
func (b *build) nextHopMAC(via netip.Addr, ri *routerInfo, ifIndex int, target netip.Addr) (collector.MAC, bool) {
	if mac, ok := b.cachedMAC(target); ok {
		return mac, true
	}
	entries := b.appendNextHops(append(b.asked[:0], arpEntry{ifIndex: ifIndex, ip: target}), ri, b.c.maxVarBinds())
	b.asked = entries
	b.arpGet(via, entries)
	b.learn(entries)
	if p, ok := b.pos[target]; ok {
		return b.at[p].mac, b.at[p].hasMAC
	}
	return b.listedMAC(target)
}
