package snmpcoll

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"testing"

	"remos/internal/collector"
	"remos/internal/collector/bridgecoll"
	"remos/internal/mib"
	"remos/internal/topology"
)

// This file keeps the discovery this package used before it went linear —
// a walk over all host pairs, resolving and verifying each host with its
// own one-varbind Gets — as the reference the differential tests compare
// the phased discovery against. Only the walk is kept: it joins every
// pair in full, with no memory of which chains or hosts an earlier pair
// joined (nor of which chain a destination took), and it builds its graph
// through the string-keyed Graph API, a node known by its ID and a link by
// its two ends' IDs, where production numbers them. The devices are asked
// through the production helpers (router views, MAC resolution, level-2
// paths), and the walk's graph is numbered into a build at the end, so
// the same code registers its poll points and annotates it: the two can
// differ only in which joins they make, in which order, and in how they
// tell one node or link from another.

// referenceWalk is the per-query state of the pairwise walk.
type referenceWalk struct {
	b          *build
	g          *topology.Graph
	polls      []refPoll // by link of g: where it is polled
	joined     map[refJoin]bool
	verified   map[netip.Addr]bool
	l2Attached map[netip.Addr]bool // hosts already connected via an L2 path
}

// refPoll is a pollReg with its ends named by node ID.
type refPoll struct {
	agent       netip.Addr
	ifIndex     int
	from, to    string
	outIsFromTo bool
}

// refJoin names one connection the walk made: a host attached to router
// a, or (no host) routers a and b joined, a the lower-addressed.
type refJoin struct {
	host netip.Addr
	a, b *routerInfo
}

// ReferenceCollect answers a query by the pairwise walk. Exported (from a
// test file) for the external differential tests, which build the campus
// through packages this one cannot import.
func (c *Collector) ReferenceCollect(q collector.Query) (*collector.Result, QueryStats, error) {
	ctx := q.Context()
	if len(q.Hosts) == 0 {
		return nil, QueryStats{}, fmt.Errorf("snmpcoll: empty query")
	}
	w := &referenceWalk{
		b:          startBuild(ctx, c, len(q.Hosts)),
		g:          topology.NewGraph(),
		joined:     make(map[refJoin]bool),
		verified:   make(map[netip.Addr]bool),
		l2Attached: make(map[netip.Addr]bool),
	}
	// Discover the union of pairwise paths.
	for i := 0; i < len(q.Hosts); i++ {
		for j := i + 1; j < len(q.Hosts); j++ {
			if err := w.addPath(q.Hosts[i], q.Hosts[j]); err != nil {
				return nil, QueryStats{}, fmt.Errorf("snmpcoll: path %v-%v: %w", q.Hosts[i], q.Hosts[j], err)
			}
		}
	}
	if len(q.Hosts) == 1 {
		w.addHost(q.Hosts[0])
		if err := w.verifyHost(q.Hosts[0]); err != nil {
			return nil, QueryStats{}, err
		}
	}
	w.load()
	w.b.newPoints()
	cold := w.b.annotate()
	reqs, rtt := w.b.meter.Snapshot()
	return &collector.Result{Graph: w.b.graph()}, QueryStats{Requests: reqs, RTT: rtt, ColdStart: cold}, nil
}

// load numbers the walk's graph into its build, as the phased discovery
// would hold it: the nodes in ID order, the links in the order the walk
// added them, each with its poll registration.
func (w *referenceWalk) load() {
	b := w.b
	num := make(map[string]int32)
	b.nodes = b.nodes[:0]
	for _, n := range w.g.Nodes() {
		num[n.ID] = int32(len(b.nodes))
		b.nodes = append(b.nodes, *n)
	}
	b.links = b.links[:0]
	for i, l := range w.g.Links() {
		p := w.polls[i]
		reg := pollReg{agent: p.agent, ifIndex: p.ifIndex, from: num[p.from], to: num[p.to], outIsFromTo: p.outIsFromTo}
		b.links = append(b.links, link{Link: *l, from: num[l.From], to: num[l.To], poll: reg})
	}
}

// addHost places a queried host in the build and in the walk's graph.
func (w *referenceWalk) addHost(h netip.Addr) {
	w.b.place([]netip.Addr{h})
	if w.g.Node(h.String()) == nil {
		w.g.AddNode(topology.Node{ID: h.String(), Kind: topology.HostNode, Addr: h.String()})
	}
}

// hostMAC returns the MAC the walk has resolved for a queried host.
func (w *referenceWalk) hostMAC(h netip.Addr) (collector.MAC, bool) {
	st := w.b.at[w.b.pos[h]]
	return st.mac, st.hasMAC
}

// resolveMAC resolves a host's MAC: from the static ARP cache, by an SNMP
// ipNetToMedia lookup at the host's gateway router, or from configuration.
func (w *referenceWalk) resolveMAC(h netip.Addr) (collector.MAC, bool) {
	b := w.b
	if mac, ok := b.cachedMAC(h); ok {
		return mac, true
	}
	remember := func(m collector.MAC) (collector.MAC, bool) {
		b.learn([]arpEntry{{ip: h, mac: m, found: true}})
		return m, true
	}
	if gw, okGw := b.c.cfg.GatewayOf(h); okGw {
		if v, err := b.router(gw); err == nil {
			if e, okR := b.routers[v].ri.lpm(h); okR {
				ip4 := h.As4()
				oid := mib.IPNetToMediaPhys.Append(uint32(e.ifIndex),
					uint32(ip4[0]), uint32(ip4[1]), uint32(ip4[2]), uint32(ip4[3]))
				if v, err := b.cl.GetOne(b.ctx, gw.String(), oid); err == nil {
					if m, okM := collector.MACFromBytes(v.Bytes); okM {
						return remember(m)
					}
				}
			}
		}
	}
	if b.c.cfg.ResolveMAC != nil {
		if m, okC := b.c.cfg.ResolveMAC(h); okC {
			return remember(m)
		}
	}
	return collector.MAC{}, false
}

// verifyHost performs the per-query host location check through the
// Bridge Collector (one SNMP Get when the location is already believed).
func (w *referenceWalk) verifyHost(h netip.Addr) error {
	b := w.b
	if w.verified[h] {
		return nil
	}
	w.verified[h] = true
	if b.c.cfg.Bridge == nil {
		return nil
	}
	mac, ok := w.resolveMAC(h)
	if !ok {
		return nil
	}
	// Unknown stations are outside the bridge domain; fine.
	sw, port, known := b.c.cfg.Bridge.Locate(mac)
	if !known {
		return nil
	}
	v, err := b.cl.GetOne(b.ctx, sw.String(), mib.Dot1dTpFdbPort.Append(mac.OIDSuffix()...))
	if err == nil && int(v.Int) == port {
		return nil
	}
	// The station moved (or the bridge lost it): have the Bridge
	// Collector resynchronize its database.
	_, _, err = b.c.cfg.Bridge.SearchStation(mac)
	return err
}

// addPath discovers and adds the full path between two hosts.
func (w *referenceWalk) addPath(src, dst netip.Addr) error {
	b := w.b
	for _, h := range []netip.Addr{src, dst} {
		w.addHost(h)
		if err := w.verifyHost(h); err != nil {
			return err
		}
	}
	// Same level-2 domain? Then the whole path is bridged. If both
	// endpoints are already attached to the bridged portion of this
	// query's graph, the connecting path is already present (bridged
	// topologies are trees).
	if b.c.cfg.Bridge != nil {
		ms, okS := w.resolveMAC(src)
		md, okD := w.resolveMAC(dst)
		if okS && okD {
			dS, okDS := b.c.cfg.Bridge.Domain(ms)
			dD, okDD := b.c.cfg.Bridge.Domain(md)
			if okDS && okDD && dS == dD && w.l2Attached[src] && w.l2Attached[dst] {
				return nil
			}
			if segs, err := b.l2Path(ms, md); err == nil {
				w.addL2Segments(segs, src.String(), dst.String())
				w.l2Attached[src] = true
				w.l2Attached[dst] = true
				return nil
			}
		}
	}
	// Routed: follow from src's gateway.
	return w.addRoutedPath(src, dst)
}

// addRoutedPath adds the routed path between two hosts in full: walk the
// router chain from src's gateway toward dst, attach src to its first
// router, join every hop, attach dst to its last router.
func (w *referenceWalk) addRoutedPath(src, dst netip.Addr) error {
	gw := w.b.at[w.b.pos[src]].gateway
	if !gw.IsValid() {
		return fmt.Errorf("no gateway configured for %v", src)
	}
	var chain []*routerInfo
	var addrs []netip.Addr
	for cur := gw; ; {
		if len(chain) > 32 {
			return fmt.Errorf("route loop toward %v", dst)
		}
		ri, err := w.useRouter(cur)
		if err != nil {
			return err
		}
		chain, addrs = append(chain, ri), append(addrs, cur)
		e, ok := ri.lpm(dst)
		if !ok {
			return fmt.Errorf("router %v has no route to %v", cur, dst)
		}
		if !e.nextHop.IsValid() {
			break // directly connected: dst is on this router's segment
		}
		cur = e.nextHop
	}
	w.attachHostToRouter(src, chain[0], addrs[0])
	for i := 0; i+1 < len(chain); i++ {
		if err := w.addRouterHop(chain[i], chain[i+1], addrs[i], addrs[i+1], dst); err != nil {
			return err
		}
	}
	w.attachHostToRouter(dst, chain[len(chain)-1], addrs[len(addrs)-1])
	return nil
}

// useRouter loads the router at addr and puts it in the graph once, under
// its canonical identity (sysName), with the address it was first reached
// by.
func (w *referenceWalk) useRouter(addr netip.Addr) (*routerInfo, error) {
	v, err := w.b.router(addr)
	if err != nil {
		return nil, err
	}
	ri := w.b.routers[v].ri
	if w.g.Node(ri.nodeID()) == nil {
		w.g.AddNode(topology.Node{ID: ri.nodeID(), Kind: topology.RouterNode, Addr: addr.String()})
	}
	return ri, nil
}

// ensureLink adds a link once per unordered pair of node IDs.
func (w *referenceWalk) ensureLink(l topology.Link, p refPoll) {
	if w.g.FindLink(l.From, l.To) != nil {
		return
	}
	if _, err := w.g.AddLink(l); err != nil {
		panic(err) // both ends were just added
	}
	w.polls = append(w.polls, p)
}

// attachHostToRouter joins host h to router ri, reached at r: over the
// level-2 path from the host to the router's interface on its segment,
// or through the router's virtual switch.
func (w *referenceWalk) attachHostToRouter(h netip.Addr, ri *routerInfo, r netip.Addr) {
	b := w.b
	k := refJoin{host: h, a: ri}
	if w.joined[k] {
		return
	}
	w.joined[k] = true
	hostID, rtrID := h.String(), ri.nodeID()
	e, routed := ri.lpm(h)
	if b.c.cfg.Bridge != nil && routed {
		mh, okH := w.hostMAC(h)
		mr, okR := ri.mac(e.ifIndex)
		if okH && okR {
			if segs, err := b.l2Path(mh, mr); err == nil {
				w.addL2Segments(segs, hostID, rtrID)
				return
			}
		}
	}
	speed := 0.0
	if routed {
		speed = ri.speed(e.ifIndex)
	}
	vID := "v:" + rtrID
	if w.g.Node(vID) == nil {
		w.g.AddNode(topology.Node{ID: vID, Kind: topology.VirtualNode})
	}
	w.ensureLink(topology.Link{From: hostID, To: vID, Capacity: speed}, refPoll{})
	var p refPoll
	if routed {
		p = refPoll{agent: r, ifIndex: e.ifIndex, from: rtrID, to: vID, outIsFromTo: true}
	}
	w.ensureLink(topology.Link{From: rtrID, To: vID, Capacity: speed}, p)
}

// addL2Segments folds level-2 path segments into the graph, the station
// ends renamed to the given IDs, switches added by their IDs.
func (w *referenceWalk) addL2Segments(segs []bridgecoll.Segment, fromID, toID string) {
	for i, s := range segs {
		f, t := s.FromID, s.ToID
		if i == 0 {
			f = fromID
		}
		if i == len(segs)-1 {
			t = toID
		}
		for _, id := range [2]string{f, t} {
			if w.g.Node(id) == nil {
				w.g.AddNode(topology.Node{ID: id, Kind: topology.SwitchNode, Addr: id})
			}
		}
		w.ensureLink(topology.Link{From: f, To: t, Capacity: s.Capacity},
			refPoll{agent: s.PollSwitch, ifIndex: s.PollPort, from: f, to: t, outIsFromTo: s.PollIsFrom})
	}
}

// addRouterHop joins adjacent routers a and b, reached at addrA and
// addrB: over the bridged segment between them when the Bridge Collector
// covers it, otherwise directly, polled at a's egress interface.
func (w *referenceWalk) addRouterHop(a, b *routerInfo, addrA, addrB, dst netip.Addr) error {
	k := refJoin{a: a, b: b}
	if b.addr.Less(a.addr) {
		k.a, k.b = b, a
	}
	if w.joined[k] {
		return nil
	}
	e, ok := a.lpm(dst)
	if !ok {
		return fmt.Errorf("router %v lost its route to %v", addrA, dst)
	}
	w.joined[k] = true
	aID, bID := a.nodeID(), b.nodeID()
	if w.b.c.cfg.Bridge != nil {
		ma, okA := a.mac(e.ifIndex)
		mb, okB := w.b.nextHopMAC(addrA, a, e.ifIndex, addrB)
		if okA && okB {
			if segs, err := w.b.l2Path(ma, mb); err == nil {
				w.addL2Segments(segs, aID, bID)
				return nil
			}
		}
	}
	w.ensureLink(topology.Link{From: aID, To: bID, Capacity: a.speed(e.ifIndex)},
		refPoll{agent: addrA, ifIndex: e.ifIndex, from: aID, to: bID, outIsFromTo: true})
	return nil
}

// Twin returns a second collector over the same network, Bridge Collector
// and configuration (after mut), with caches of its own.
func (c *Collector) Twin(mut func(*Config)) *Collector {
	cfg := c.cfg
	if mut != nil {
		mut(&cfg)
	}
	return New(cfg)
}

// CanonicalDiscovery renders what a discovery produced in a form that does
// not depend on the order paths were added in: the nodes sorted, the links
// with endpoints sorted (capacity and both utilizations re-oriented to
// match) and sorted, and the set of poll points the collector registered.
func CanonicalDiscovery(c *Collector, g *topology.Graph) string {
	var sb strings.Builder
	for _, n := range g.Nodes() {
		fmt.Fprintf(&sb, "node %s %s %s\n", n.ID, n.Kind, n.Addr)
	}
	var links []string
	for _, l := range g.Links() {
		from, to, fwd, rev := l.From, l.To, l.UtilFromTo, l.UtilToFrom
		if from > to {
			from, to, fwd, rev = to, from, rev, fwd
		}
		links = append(links, fmt.Sprintf("link %s %s cap=%g util=%g/%g", from, to, l.Capacity, fwd, rev))
	}
	sort.Strings(links)
	c.mu.Lock()
	var monitors []string
	for mk := range c.monitors {
		monitors = append(monitors, fmt.Sprintf("monitor %s if%d", mk.agent, mk.ifIndex))
	}
	c.mu.Unlock()
	sort.Strings(monitors)
	for _, s := range append(links, monitors...) {
		sb.WriteString(s)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// AssertSameDiscovery runs the query through got's phased discovery and
// through ref's pairwise walk and fails the test unless both produced the
// same canonical graph and poll points.
func AssertSameDiscovery(t testing.TB, got, ref *Collector, hosts []netip.Addr) {
	t.Helper()
	q := collector.Query{Hosts: hosts}
	res, err := got.Collect(q)
	if err != nil {
		t.Fatalf("phased discovery: %v", err)
	}
	want, _, err := ref.ReferenceCollect(q)
	if err != nil {
		t.Fatalf("reference walk: %v", err)
	}
	g, w := CanonicalDiscovery(got, res.Graph), CanonicalDiscovery(ref, want.Graph)
	if g != w {
		t.Fatalf("discovery of %v differs from the pairwise walk\n--- phased\n%s--- pairwise\n%s%s", hosts, g, w, firstDiff(g, w))
	}
}

func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) || i < len(lb); i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y {
			return fmt.Sprintf("--- first difference, line %d\nphased:   %s\npairwise: %s\n", i+1, x, y)
		}
	}
	return ""
}
