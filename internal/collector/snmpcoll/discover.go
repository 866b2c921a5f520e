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
		b = new(build)
	}
	defer func() {
		if b.reset() {
			c.builds.Put(b)
		}
	}()
	b.start(ctx, c, c.client(&b.meter), len(q.Hosts))
	cl := b.cl
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
	for _, ri := range b.used {
		if !b.fresh[ri] {
			stale = append(stale, ri)
		}
	}
	b.stale = stale
	slices.SortFunc(stale, func(x, y *routerInfo) int { return x.addr.Compare(y.addr) })
	sp = start("validate")
	if err := conc.ForEachCtx(ctx, len(stale), c.cfg.Parallelism, func(i int) error {
		return c.validateRouter(ctx, cl, stale[i])
	}); err != nil {
		sp.EndDetail(err.Error())
		return nil, QueryStats{}, err
	}
	if sp != nil {
		sp.EndDetail(fmt.Sprintf("%d devices", len(stale)))
	}

	// Annotate utilization from monitoring history, registering any
	// unmonitored links for the poller; registration performs the
	// initial counter read.
	sp = start("annotate")
	cold := c.annotate(ctx, cl, b)
	sp.End()

	res := &collector.Result{Graph: b.g}
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

// build accumulates one query's graph. Everything a query learns is kept
// here for the query's duration even when DisableRouteCache forbids
// keeping it longer, so no device is asked the same thing twice by one
// query. A build outlives its query in the collector's pool: reset empties
// it, and the next query reuses its maps and slices instead of making its
// own, so a query allocates its answer and the cache entries it creates,
// not its working state.
type build struct {
	ctx   context.Context
	c     *Collector
	cl    *snmp.Client
	meter snmp.Meter // the query's SNMP cost, metered by cl
	g     *topology.Graph

	hosts    []netip.Addr              // the distinct queried hosts, in query order
	ids      []string                  // their node IDs
	pos      map[netip.Addr]int32      // their positions in hosts
	gateways map[netip.Addr]netip.Addr // their configured first-hop routers (invalid: none)
	macs     map[netip.Addr]collector.MAC

	routers   map[netip.Addr]*routerInfo // by any address met this query
	routerErr map[netip.Addr]error       // fetches that failed this query
	fresh     map[*routerInfo]bool       // fetched by this query: already validated
	used      []*routerInfo              // routers on some path, each once

	segs   []bridgecoll.Segment // l2Path's scratch
	chains []chain              // the distinct router chains walked, see routerChain
	hops   []netip.Addr         // their addresses, and routerChain's scratch past them
	routes []route              // routerChain's memo: which chain a destination takes

	linkPolls []pollReg             // by graph link number: each link's poll registration
	joined    map[join]struct{}     // hosts attached to routers, routers joined to routers
	l2gen     bridgecoll.Generation // the bridge database generation l2links belong to
	l2links   []int32               // by bridge link number: 1 + the graph link it was folded into

	// The phases' scratch, each read by one phase only.
	index      map[netip.Addr]int32 // a phase's address -> group, cleared by the phase
	unresolved []netip.Addr         // discover: the hosts whose MACs are not known
	gws        []netip.Addr         // gatewaysOf's result
	fetched    []fetched            // fetchRouters: each address's outcome
	arpGroups  []arpGroup           // resolveMACs: the ARP entries asked of each gateway
	asked      []arpEntry           // resolveMACs' fallbacks, nextHopMAC's Get
	swGroups   []swGroup            // confirm: what is asked of each switch
	moved      []collector.MAC      // confirm: the stations found off their port
	places     []place              // connect: what it knows of each host
	stale      []*routerInfo        // CollectWithStats: the cached routers to validate
	added      []*pollPoint         // newPoints: the points this query registers, see annotate
	unread     []*pollPoint         // annotate: those confirm could not read
}

// poolMax bounds what pooled scratch keeps: a build or request holding a
// map or slice that grew past poolMax entries is dropped, not pooled, so
// the pool keeps what ordinary queries need and one huge query cannot pin
// its maps.
const poolMax = 4096

// start readies an empty build for a query of the given number of hosts,
// sizing what it has to make from it: a host brings itself, about one
// switch and about two links into the graph, and 32 campus hosts walk 12
// distinct chains.
func (b *build) start(ctx context.Context, c *Collector, cl *snmp.Client, hosts int) {
	b.ctx, b.c, b.cl = ctx, c, cl
	b.meter = snmp.Meter{}
	b.g = topology.NewGraphSized(2*hosts, 2*hosts)
	if b.pos == nil {
		b.pos = make(map[netip.Addr]int32, hosts)
		b.gateways = make(map[netip.Addr]netip.Addr, hosts)
		b.macs = make(map[netip.Addr]collector.MAC, hosts)
		b.routers = make(map[netip.Addr]*routerInfo)
		b.routerErr = make(map[netip.Addr]error)
		b.fresh = make(map[*routerInfo]bool)
		b.joined = make(map[join]struct{}, hosts)
		b.index = make(map[netip.Addr]int32)
	}
	b.hosts = slices.Grow(b.hosts, hosts)
	b.ids = slices.Grow(b.ids, hosts)
	b.chains = slices.Grow(b.chains, hosts/2)
	b.hops = slices.Grow(b.hops, 2*hosts)
	b.routes = slices.Grow(b.routes, hosts/2)
	b.linkPolls = slices.Grow(b.linkPolls, 2*hosts)
}

// reset empties the build after its query — every map cleared, every
// slice cleared and truncated, so the pool keeps no graph, router or poll
// point alive — and reports whether it may go back to the pool: not when
// anything in it grew past poolMax. The bridge generation is forgotten
// with the link numbers kept under it, which name links of the last
// query's graph. The groups keep their entry slices for the next query.
func (b *build) reset() (pool bool) {
	b.ctx, b.c, b.cl, b.g = nil, nil, nil, nil
	b.l2gen = bridgecoll.Generation{}
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
	most = max(most, cap(b.arpGroups), cap(b.swGroups),
		empty(b.pos), empty(b.gateways), empty(b.macs), empty(b.routers), empty(b.routerErr),
		empty(b.fresh), empty(b.joined), empty(b.index),
		truncate(&b.hosts), truncate(&b.ids), truncate(&b.used), truncate(&b.segs),
		truncate(&b.chains), truncate(&b.hops), truncate(&b.routes), truncate(&b.linkPolls),
		truncate(&b.l2links), truncate(&b.unresolved), truncate(&b.gws), truncate(&b.fetched),
		truncate(&b.asked), truncate(&b.moved), truncate(&b.places), truncate(&b.stale), truncate(&b.added),
		truncate(&b.unread))
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
	addrs   []netip.Addr // the routers' addresses, gateway first
	last    *routerInfo  // the router at addrs[len(addrs)-1]
	joined  bool         // its router hops are in the graph
	lastSrc netip.Addr   // the source last attached to its first router
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

// join names one connection the query made: the queried host at position
// host attached to router a, or (host -1) routers a and b joined, a the
// lower-addressed.
type join struct {
	host int32
	a, b *routerInfo
}

type pollReg struct {
	agent       netip.Addr
	ifIndex     int
	from, to    string
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
	for _, h := range hosts {
		b.addHost(h)
	}
	if b.c.cfg.Bridge == nil {
		// No MACs to resolve, no stations to confirm: every pair is routed,
		// through the hosts' gateways.
		if len(b.hosts) > 1 {
			b.fetchRouters(b.gatewaysOf(b.hosts))
		}
		return b.connectUnconfirmed(hosts)
	}
	unresolved := b.unresolved[:0]
	for _, h := range b.hosts {
		if _, ok := b.cachedMAC(h); !ok {
			unresolved = append(unresolved, h)
		}
	}
	b.unresolved = unresolved
	b.fetchRouters(b.gatewaysOf(unresolved))
	b.resolveMACs(unresolved)
	gen := b.c.cfg.Bridge.Generation()
	if err := b.connect(hosts); err != nil {
		return err
	}
	if rebuild, err := b.confirm(gen); err != nil || !rebuild {
		return err
	}
	b.rollback()
	return b.connectUnconfirmed(hosts)
}

// connectUnconfirmed connects the hosts with no confirm to follow:
// annotate reads every new point's baseline.
func (b *build) connectUnconfirmed(hosts []netip.Addr) error {
	if err := b.connect(hosts); err != nil {
		return err
	}
	b.newPoints()
	return nil
}

// addHost places a queried host in the graph.
func (b *build) addHost(h netip.Addr) {
	if _, dup := b.pos[h]; dup {
		return
	}
	id := b.c.name(h)
	b.pos[h] = int32(len(b.hosts))
	b.hosts, b.ids = append(b.hosts, h), append(b.ids, id)
	b.gateways[h], _ = b.c.cfg.GatewayOf(h)
	b.g.AddNode(hostNode(id))
}

func hostNode(id string) topology.Node {
	return topology.Node{ID: id, Kind: topology.HostNode, Addr: id}
}

// rollback drops what connect built on station locations confirm found
// stale: the graph, every join made into it, and the new points with the
// baselines confirm read for them. The hosts stay placed, their MACs
// resolved and their routers fetched, for connect to start again.
func (b *build) rollback() {
	b.g = topology.NewGraphSized(2*len(b.hosts), 2*len(b.hosts))
	for _, id := range b.ids {
		b.g.AddNode(hostNode(id))
	}
	b.l2gen = bridgecoll.Generation{}
	clear(b.joined)
	truncate(&b.used)
	truncate(&b.chains)
	truncate(&b.hops)
	truncate(&b.routes)
	truncate(&b.linkPolls)
	truncate(&b.l2links)
	truncate(&b.added)
}

// gatewaysOf returns the distinct configured gateways of the hosts, in
// first-seen order.
func (b *build) gatewaysOf(hosts []netip.Addr) []netip.Addr {
	clear(b.index)
	gws := b.gws[:0]
	for _, h := range hosts {
		if gw := b.gateways[h]; gw.IsValid() {
			if _, seen := b.index[gw]; !seen {
				b.index[gw] = int32(len(gws))
				gws = append(gws, gw)
			}
		}
	}
	b.gws = gws
	return gws
}

// fetchRouters loads the routers at the given addresses concurrently,
// ahead of the serial path following. A failure is remembered, not
// reported: the path that needs the router reports it with its context.
func (b *build) fetchRouters(addrs []netip.Addr) {
	out := slices.Grow(b.fetched[:0], len(addrs))[:len(addrs)]
	clear(out)
	b.fetched = out
	// Per-item errors land in out; an expired ctx resurfaces at the next exchange.
	conc.ForEachCtx(b.ctx, len(addrs), b.c.cfg.Parallelism, func(i int) error {
		out[i].ri, out[i].fresh, out[i].err = b.c.routerFor(b.ctx, b.cl, addrs[i])
		return nil
	})
	for i, r := range out {
		if r.err != nil {
			b.routerErr[addrs[i]] = r.err
		} else {
			b.adopt(r.ri, r.fresh)
		}
	}
}

// fetched is one fetchRouters outcome.
type fetched struct {
	ri    *routerInfo
	fresh bool
	err   error
}

// adopt makes a router view this query's view of every address the router
// holds.
func (b *build) adopt(ri *routerInfo, fresh bool) {
	for _, a := range ri.addrs {
		b.routers[a] = ri
	}
	if fresh {
		b.fresh[ri] = true
	}
}

// router returns this query's view of the router at addr, loading it on
// first mention.
func (b *build) router(addr netip.Addr) (*routerInfo, error) {
	if ri, ok := b.routers[addr]; ok {
		return ri, nil
	}
	if err, failed := b.routerErr[addr]; failed {
		return nil, err
	}
	ri, fresh, err := b.c.routerFor(b.ctx, b.cl, addr)
	if err != nil {
		b.routerErr[addr] = err
		return nil, err
	}
	b.adopt(ri, fresh)
	return ri, nil
}

// cachedMAC returns the MAC this query already holds for an address, or
// the one in the collector's ARP cache — part of its static state (dropped
// by DropCaches, kept by DropDynamic), which DisableRouteCache bypasses.
func (b *build) cachedMAC(ip netip.Addr) (collector.MAC, bool) {
	if mac, ok := b.macs[ip]; ok {
		return mac, true
	}
	if b.c.cfg.DisableRouteCache {
		return collector.MAC{}, false
	}
	b.c.mu.Lock()
	mac, ok := b.c.arp[ip]
	b.c.mu.Unlock()
	if ok {
		b.macs[ip] = mac
	}
	return mac, ok
}

// learn records the MACs found for the given ARP entries, for this query
// and in the collector's ARP cache.
func (b *build) learn(entries []arpEntry) {
	b.c.mu.Lock()
	defer b.c.mu.Unlock()
	for _, e := range entries {
		if e.found {
			b.macs[e.ip] = e.mac
			b.c.arp[e.ip] = e.mac
		}
	}
}

// arpEntry names one row of a router's ipNetToMediaTable, and what asking
// for it found.
type arpEntry struct {
	ifIndex int
	ip      netip.Addr
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

// resolveMACs resolves the given hosts' MACs: one ipNetToMedia Get per
// gateway router for all the hosts behind it (the router's next hops fill
// the PDU's spare room), configuration for whatever that leaves. What it
// learns joins the collector's ARP cache.
func (b *build) resolveMACs(hosts []netip.Addr) {
	per := b.c.maxVarBinds()
	clear(b.index) // gateway -> index in groups
	groups := b.arpGroups[:0]
	for _, h := range hosts {
		gw := b.gateways[h]
		ri := b.routers[gw] // loaded by fetchRouters, or unreachable, or no gateway
		if ri == nil {
			continue
		}
		e, ok := ri.lpm(h)
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
		groups[i].entries = append(groups[i].entries, arpEntry{ifIndex: e.ifIndex, ip: h})
	}
	b.arpGroups = groups
	for i := range groups {
		g := &groups[i]
		g.entries = b.appendNextHops(g.entries, g.ri, (len(g.entries)+per-1)/per*per)
	}
	// arpGet leaves what it could not read unfound; configuration covers it below.
	conc.ForEachCtx(b.ctx, len(groups), b.c.cfg.Parallelism, func(i int) error {
		b.arpGet(groups[i].gw, groups[i].entries)
		return nil
	})
	for _, g := range groups {
		b.learn(g.entries)
	}
	if b.c.cfg.ResolveMAC != nil {
		fallback := b.asked[:0]
		for _, h := range hosts {
			if _, ok := b.macs[h]; !ok {
				if m, ok := b.c.cfg.ResolveMAC(h); ok {
					fallback = append(fallback, arpEntry{ip: h, mac: m, found: true})
				}
			}
		}
		b.asked = fallback
		b.learn(fallback)
	}
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
	for _, h := range b.hosts {
		mac, ok := b.macs[h]
		if !ok {
			continue
		}
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
	conc.ForEachCtx(b.ctx, len(groups), b.c.cfg.Parallelism, func(i int) error {
		b.confirmSwitch(&groups[i])
		return nil
	})
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

// place is what connect knows of a host. domain 0 is none; lastRouter is
// the router the host was last attached to as a destination.
type place struct {
	domain                      int32
	firstOfDomain, firstOfGroup bool
	routedLater                 bool // some later host is outside this one's domain
	lastRouter                  *routerInfo
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
// Pairs are visited in query order, so each link is first added — and
// takes its orientation and poll point — by the same path as in a walk
// over all pairs.
func (b *build) connect(hosts []netip.Addr) error {
	n := len(hosts)
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
	for i, h := range hosts {
		p := &at[i]
		if mac, ok := b.macs[h]; ok && b.c.cfg.Bridge != nil {
			d, _ := b.c.cfg.Bridge.Domain(mac)
			p.domain = int32(d)
		}
		if d := p.domain; d != 0 && !slices.Contains(domains, d) {
			domains, p.firstOfDomain = append(domains, d), true
		}
		if g := (group{p.domain, b.gateways[h]}); !slices.Contains(groups, g) {
			groups, p.firstOfGroup = append(groups, g), true
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

	for i, src := range hosts {
		if !at[i].firstOfGroup {
			if at[i].routedLater {
				if err := b.attachToGateway(src); err != nil {
					return fmt.Errorf("snmpcoll: attaching %v: %w", src, err)
				}
			}
			continue
		}
		for j := i + 1; j < n; j++ {
			dst := hosts[j]
			if sameDomain(i, j) {
				if !at[i].firstOfDomain {
					continue
				}
				segs, err := b.l2Path(b.macs[src], b.macs[dst])
				if err == nil {
					if err := b.addL2Segments(segs, b.ids[b.pos[src]], b.ids[b.pos[dst]]); err != nil {
						return err
					}
					continue
				}
				// The bridge database changed under the query: route.
			}
			if err := b.addRoutedPath(src, dst, &at[j].lastRouter); err != nil {
				return fmt.Errorf("snmpcoll: path %v-%v: %w", src, dst, err)
			}
		}
	}
	return nil
}

// attachToGateway joins a host to its configured first-hop router.
func (b *build) attachToGateway(h netip.Addr) error {
	gw := b.gateways[h]
	if !gw.IsValid() {
		return fmt.Errorf("no gateway configured for %v", h)
	}
	if _, err := b.useRouter(gw); err != nil {
		return err
	}
	return b.attachHostToRouter(h, gw)
}

// addRoutedPath adds the routed path between two hosts: src to its
// gateway, the router chain from there toward dst, dst to the chain's last
// router — each join only when neither the chain nor *dstAt (the router
// dst was last attached to) shows it made. The joins left may still be
// made: chains share hops, and a host is a source and a destination.
func (b *build) addRoutedPath(src, dst netip.Addr, dstAt **routerInfo) error {
	gw := b.gateways[src]
	if !gw.IsValid() {
		return fmt.Errorf("no gateway configured for %v", src)
	}
	ch, err := b.routerChain(gw, dst)
	if err != nil {
		return err
	}
	// Attach src to the first router over level 2.
	if ch.lastSrc != src {
		if err := b.attachHostToRouter(src, ch.addrs[0]); err != nil {
			return err
		}
		ch.lastSrc = src
	}
	// Router-to-router hops.
	if !ch.joined {
		for i := 0; i+1 < len(ch.addrs); i++ {
			if err := b.addRouterHop(ch.addrs[i], ch.addrs[i+1], dst); err != nil {
				return err
			}
		}
		ch.joined = true
	}
	// Attach dst to the last router.
	if *dstAt == ch.last {
		return nil
	}
	*dstAt = ch.last
	return b.attachHostToRouter(dst, ch.addrs[len(ch.addrs)-1])
}

// ensureLink adds a link once per unordered pair, remembering its poll
// point under the link's number. It returns that number, or -1 when the
// graph already joined the pair.
func (b *build) ensureLink(l topology.Link, reg pollReg) (int, error) {
	if b.g.FindLink(l.From, l.To) != nil {
		return -1, nil
	}
	if _, err := b.g.AddLink(l); err != nil {
		return 0, err
	}
	b.linkPolls = append(b.linkPolls, reg)
	return len(b.linkPolls) - 1, nil
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
	var ri *routerInfo
	bits := int32(0)
	for cur := start; ; {
		if len(walked)-base > 32 {
			return nil, fmt.Errorf("route loop toward %v", dst)
		}
		walked = append(walked, cur)
		var err error
		if ri, err = b.useRouter(cur); err != nil {
			return nil, err
		}
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
	addrs := walked[base:len(walked):len(walked)]
	i := slices.IndexFunc(b.chains, func(ch chain) bool { return slices.Equal(ch.addrs, addrs) })
	if i >= 0 {
		b.hops = walked[:base]
	} else {
		i = len(b.chains)
		b.hops = walked
		b.chains = append(b.chains, chain{addrs: addrs, last: ri})
	}
	if memo {
		b.routes = append(b.routes, route{start: from, dst: to, bits: bits, chain: int32(i)})
	}
	return &b.chains[i], nil
}

// useRouter ensures the router at addr is loaded, validated and in the
// graph. The graph node is keyed by the router's canonical identity
// (sysName), so a router reached under several of its addresses appears
// once, carrying the address it was first reached by. It returns the
// router's view; a router this query placed is known by that pointer.
func (b *build) useRouter(addr netip.Addr) (*routerInfo, error) {
	ri, err := b.router(addr)
	if err != nil {
		return nil, err
	}
	if !slices.Contains(b.used, ri) && b.g.Node(ri.nodeID()) == nil {
		b.used = append(b.used, ri)
		b.g.AddNode(topology.Node{ID: ri.nodeID(), Kind: topology.RouterNode, Addr: b.c.name(addr)})
	}
	return ri, nil
}

// attachHostToRouter adds the host-to-gateway connection: through the
// Bridge Collector's level-2 path when available (using the router's own
// interface MAC on the host's segment, from its ifPhysAddress table),
// otherwise through a virtual switch — the paper's representation for
// shared Ethernets and segments the collector cannot see inside.
func (b *build) attachHostToRouter(h, r netip.Addr) error {
	ri := b.routers[r]
	n := b.pos[h]
	if _, done := b.joined[join{host: n, a: ri}]; done {
		return nil
	}
	b.joined[join{host: n, a: ri}] = struct{}{}
	hostID, rtrID := b.ids[n], ri.nodeID()
	e, routed := ri.lpm(h)
	if b.c.cfg.Bridge != nil && routed {
		mh, okH := b.macs[h]
		mr, okR := ri.mac(e.ifIndex)
		if okH && okR {
			if segs, err := b.l2Path(mh, mr); err == nil {
				return b.addL2Segments(segs, hostID, rtrID)
			}
		}
	}
	// Virtual switch fallback: host -- vswitch -- router, capacity from
	// the router's interface speed toward the host.
	speed := 0.0
	if routed {
		speed = ri.speed(e.ifIndex)
	}
	vID := "v:" + rtrID
	if b.g.Node(vID) == nil {
		b.g.AddNode(topology.Node{ID: vID, Kind: topology.VirtualNode})
	}
	if _, err := b.ensureLink(topology.Link{From: hostID, To: vID, Capacity: speed}, pollReg{}); err != nil {
		return err
	}
	// Router side of the virtual switch is pollable on the router.
	var reg pollReg
	if routed {
		reg = pollReg{agent: r, ifIndex: e.ifIndex, from: rtrID, to: vID, outIsFromTo: true}
	}
	_, err := b.ensureLink(topology.Link{From: rtrID, To: vID, Capacity: speed}, reg)
	return err
}

// l2Path asks the Bridge Collector for the level-2 path between two
// stations. The segments live in the build's scratch until the next call:
// addL2Segments folds them into the graph right away. A path from a new
// generation of the bridge database drops the marks of the last one: the
// link numbers they are kept under have changed.
func (b *build) l2Path(from, to collector.MAC) ([]bridgecoll.Segment, error) {
	segs, gen, err := b.c.cfg.Bridge.AppendPath(b.segs[:0], from, to)
	b.segs = segs[:0]
	if gen != b.l2gen {
		b.l2gen = gen
		b.l2links = slices.Grow(b.l2links[:0], gen.Links())[:gen.Links()]
		clear(b.l2links)
	}
	return segs, err
}

// addL2Segments folds Bridge Collector path segments into the graph,
// renaming the station endpoints to the given IDs and registering each
// segment's poll point. A bridge link is folded in once: a segment whose
// link is already in the graph between the same two nodes is passed by.
func (b *build) addL2Segments(segs []bridgecoll.Segment, fromID, toID string) error {
	for i, s := range segs {
		f, t := s.FromID, s.ToID
		if i == 0 {
			f = fromID
		}
		if i == len(segs)-1 {
			t = toID
		}
		if n := b.l2links[s.Link]; n != 0 {
			if l := b.g.Links()[n-1]; l.From == f && l.To == t || l.From == t && l.To == f {
				continue
			}
		}
		// Interior IDs are switch management addresses: add nodes.
		for _, id := range [2]string{f, t} {
			if b.g.Node(id) == nil {
				b.g.AddNode(topology.Node{ID: id, Kind: topology.SwitchNode, Addr: id})
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
		l, err := b.ensureLink(topology.Link{From: f, To: t, Capacity: s.Capacity}, reg)
		if err != nil {
			return err
		}
		if l >= 0 {
			b.l2links[s.Link] = int32(l + 1)
		}
	}
	return nil
}

// addRouterHop connects two adjacent routers: through the bridged segment
// between them when the Bridge Collector covers it (the egress interface
// MAC comes from the router's own ifPhysAddress, the next hop's from the
// router's ARP table), otherwise as a direct link. The egress interface
// speed gives the capacity and the egress interface is the poll point.
func (b *build) addRouterHop(a, bAddr netip.Addr, dst netip.Addr) error {
	riA, riB := b.routers[a], b.routers[bAddr]
	key := join{host: -1, a: riA, b: riB}
	if riB.addr.Less(riA.addr) {
		key.a, key.b = riB, riA
	}
	if _, done := b.joined[key]; done {
		return nil
	}
	e, ok := riA.lpm(dst)
	if !ok {
		return fmt.Errorf("router %v lost its route to %v", a, dst)
	}
	b.joined[key] = struct{}{}
	aID, bID := riA.nodeID(), riB.nodeID()
	if b.c.cfg.Bridge != nil {
		ma, okA := riA.mac(e.ifIndex)
		mb, okB := b.nextHopMAC(a, riA, e.ifIndex, bAddr)
		if okA && okB {
			if segs, err := b.l2Path(ma, mb); err == nil {
				return b.addL2Segments(segs, aID, bID)
			}
		}
	}
	reg := pollReg{agent: a, ifIndex: e.ifIndex, from: aID, to: bID, outIsFromTo: true}
	_, err := b.ensureLink(topology.Link{From: aID, To: bID, Capacity: riA.speed(e.ifIndex)}, reg)
	return err
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
	mac, ok := b.macs[target]
	return mac, ok
}
