package snmpcoll

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"testing"

	"remos/internal/collector"
	"remos/internal/mib"
	"remos/internal/snmp"
	"remos/internal/topology"
)

// This file keeps the discovery this package used before it went linear —
// a walk over all host pairs, resolving and verifying each host with its
// own one-varbind Gets — as the reference the differential tests compare
// the phased discovery against. Only the walk is kept: it joins every
// pair in full, with no memory of which chains or hosts an earlier pair
// joined (nor of which chain a destination took), but each join — a router chain walked, a host attached, a hop
// added, a level-2 path folded in, a poll point registered — is made by
// the same helpers production uses, so the two can differ only in which
// joins they make and in which order.

// referenceWalk is the per-query state of the pairwise walk.
type referenceWalk struct {
	b          *build
	verified   map[netip.Addr]bool
	l2Attached map[netip.Addr]bool // hosts already connected via an L2 path
}

// ReferenceCollect answers a query by the pairwise walk. Exported (from a
// test file) for the external differential tests, which build the campus
// through packages this one cannot import.
func (c *Collector) ReferenceCollect(q collector.Query) (*collector.Result, QueryStats, error) {
	ctx := q.Context()
	meter := &snmp.Meter{}
	cl := c.client(meter)
	if len(q.Hosts) == 0 {
		return nil, QueryStats{}, fmt.Errorf("snmpcoll: empty query")
	}
	w := &referenceWalk{
		b:          newBuild(ctx, c, cl, len(q.Hosts)),
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
		w.b.addHost(q.Hosts[0])
		if err := w.verifyHost(q.Hosts[0]); err != nil {
			return nil, QueryStats{}, err
		}
	}
	w.b.newPoints()
	cold := c.annotate(ctx, cl, w.b)
	reqs, rtt := meter.Snapshot()
	return &collector.Result{Graph: w.b.g}, QueryStats{Requests: reqs, RTT: rtt, ColdStart: cold}, nil
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
		if ri, err := b.router(gw); err == nil {
			if e, okR := ri.lpm(h); okR {
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
		b.addHost(h)
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
				if err := b.addL2Segments(segs, src.String(), dst.String()); err != nil {
					return err
				}
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
	b := w.b
	gw := b.gateways[src]
	if !gw.IsValid() {
		return fmt.Errorf("no gateway configured for %v", src)
	}
	b.routes = b.routes[:0] // every chain walked hop by hop, none taken from the memo
	ch, err := b.routerChain(gw, dst)
	if err != nil {
		return err
	}
	if err := b.attachHostToRouter(src, ch.addrs[0]); err != nil {
		return err
	}
	for i := 0; i+1 < len(ch.addrs); i++ {
		if err := b.addRouterHop(ch.addrs[i], ch.addrs[i+1], dst); err != nil {
			return err
		}
	}
	return b.attachHostToRouter(dst, ch.addrs[len(ch.addrs)-1])
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
