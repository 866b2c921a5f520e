package snmpcoll

import (
	"context"
	"net/netip"
	"slices"
	"testing"

	"remos/internal/mib"
	"remos/internal/sim"
	"remos/internal/snmp"
)

// A router of a hand-built routed layout: its interfaces (ifIndex from 1)
// and its routes.
type handRouter struct {
	name   string
	ifaces []netip.Prefix // each interface's address and subnet
	routes []handRoute
}

type handRoute struct {
	dst     netip.Prefix
	nextHop string // "" = directly connected
	ifIndex int
}

// table serves what fetchRouter, validation and the baseline poll read.
func (r handRouter) table() *snmp.Table {
	var binds []snmp.Binding
	bind := func(o snmp.OID, v snmp.Value) { binds = append(binds, snmp.Binding{Name: o, Value: v}) }
	ip4 := func(a netip.Addr) []uint32 {
		b := a.As4()
		return []uint32{uint32(b[0]), uint32(b[1]), uint32(b[2]), uint32(b[3])}
	}
	bind(mib.SysName, snmp.Str(r.name))
	bind(mib.SysUpTime, snmp.Ticks(100))
	bind(mib.IfNumber, snmp.Int64(int64(len(r.ifaces))))
	for i, p := range r.ifaces {
		idx := uint32(i + 1)
		bind(mib.IfSpeed.Append(idx), snmp.Gauge(1e8))
		bind(mib.IfPhysAddr.Append(idx), snmp.Octets([]byte{2, 0, 0, 0, r.name[len(r.name)-1], byte(idx)}))
		bind(mib.IfHCInOctets.Append(idx), snmp.Counter64Val(1000))
		bind(mib.IfHCOutOctets.Append(idx), snmp.Counter64Val(2000))
		bind(mib.IPAdEntIfIndex.Append(ip4(p.Addr())...), snmp.Int64(int64(idx)))
	}
	for _, rt := range r.routes {
		sub := ip4(rt.dst.Addr())
		bind(mib.IPRouteDest.Append(sub...), snmp.IPv4(rt.dst.Addr().As4()))
		m := ^uint32(0) << (32 - rt.dst.Bits())
		bind(mib.IPRouteMask.Append(sub...), snmp.IPv4([4]byte{byte(m >> 24), byte(m >> 16), byte(m >> 8), byte(m)}))
		next := [4]byte{}
		if rt.nextHop != "" {
			next = netip.MustParseAddr(rt.nextHop).As4()
		}
		bind(mib.IPRouteNext.Append(sub...), snmp.IPv4(next))
		bind(mib.IPRouteIfIdx.Append(sub...), snmp.Int64(int64(rt.ifIndex)))
	}
	return snmp.NewTable(binds)
}

// longerPrefixSite routes 10.0.5.0/24 from r1 through r2, which splits it:
// 10.0.5.128/25 goes on to r4, the rest to r3. d1 (10.0.5.10) and d3
// (10.0.5.20) sit behind r3, d2 (10.0.5.200) behind r4, h1 behind r1.
//
//	h1 - r1 - r2 - r3 - d1, d3
//	            \- r4 - d2
func longerPrefixSite(t *testing.T) (*Collector, map[string]netip.Addr) {
	t.Helper()
	pfx := netip.MustParsePrefix
	routers := []handRouter{
		{name: "r1", ifaces: []netip.Prefix{pfx("10.0.1.1/24"), pfx("10.0.12.1/24")}, routes: []handRoute{
			{pfx("10.0.1.0/24"), "", 1},
			{pfx("10.0.12.0/24"), "", 2},
			{pfx("10.0.5.0/24"), "10.0.12.2", 2},
		}},
		{name: "r2", ifaces: []netip.Prefix{pfx("10.0.12.2/24"), pfx("10.0.23.2/24"), pfx("10.0.24.2/24")}, routes: []handRoute{
			{pfx("10.0.12.0/24"), "", 1},
			{pfx("10.0.23.0/24"), "", 2},
			{pfx("10.0.24.0/24"), "", 3},
			{pfx("10.0.1.0/24"), "10.0.12.1", 1},
			{pfx("10.0.5.0/24"), "10.0.23.3", 2},
			{pfx("10.0.5.128/25"), "10.0.24.4", 3},
		}},
		{name: "r3", ifaces: []netip.Prefix{pfx("10.0.23.3/24"), pfx("10.0.5.1/25")}, routes: []handRoute{
			{pfx("10.0.23.0/24"), "", 1},
			{pfx("10.0.5.0/25"), "", 2},
			{pfx("10.0.1.0/24"), "10.0.23.2", 1},
			{pfx("10.0.5.128/25"), "10.0.23.2", 1},
		}},
		{name: "r4", ifaces: []netip.Prefix{pfx("10.0.24.4/24"), pfx("10.0.5.129/25")}, routes: []handRoute{
			{pfx("10.0.24.0/24"), "", 1},
			{pfx("10.0.5.128/25"), "", 2},
			{pfx("10.0.1.0/24"), "10.0.24.2", 1},
			{pfx("10.0.5.0/25"), "10.0.24.2", 1},
		}},
	}
	reg := snmp.NewRegistry()
	for _, r := range routers {
		agent := &snmp.Agent{Community: "public", View: r.table()}
		for _, p := range r.ifaces {
			reg.Register(p.Addr().String(), agent)
		}
	}
	hosts := map[string]netip.Addr{
		"h1": netip.MustParseAddr("10.0.1.10"),
		"d1": netip.MustParseAddr("10.0.5.10"),
		"d2": netip.MustParseAddr("10.0.5.200"),
		"d3": netip.MustParseAddr("10.0.5.20"),
	}
	gateways := map[netip.Addr]netip.Addr{
		hosts["h1"]: netip.MustParseAddr("10.0.1.1"),
		hosts["d1"]: netip.MustParseAddr("10.0.5.1"),
		hosts["d2"]: netip.MustParseAddr("10.0.5.129"),
		hosts["d3"]: netip.MustParseAddr("10.0.5.1"),
	}
	c := New(Config{
		Name:      "hand",
		Transport: &snmp.InProc{Registry: reg},
		Community: "public",
		Sched:     sim.NewSim(),
		GatewayOf: func(h netip.Addr) (netip.Addr, bool) {
			gw, ok := gateways[h]
			return gw, ok
		},
	})
	t.Cleanup(c.Stop)
	return c, hosts
}

// A chain remembered for one destination is reused only for destinations
// that every router on it routes alike: d1 and d2 share a /24, but r2 holds
// a /25 that tells them apart, so each gets its own chain, while d3 (in
// d1's /25) reuses d1's without a walk.
func TestChainMemoHonoursLongerPrefixes(t *testing.T) {
	c, h := longerPrefixSite(t)
	for _, order := range [][]string{{"h1", "d1", "d2", "d3"}, {"h1", "d2", "d1", "d3"}, {"d3", "d2", "h1", "d1"}} {
		hosts := make([]netip.Addr, len(order))
		for i, name := range order {
			hosts[i] = h[name]
		}
		AssertSameDiscovery(t, c.Twin(nil), c.Twin(nil), hosts)
	}

	b := startBuild(context.Background(), c, 4)
	gw := netip.MustParseAddr("10.0.1.1")
	want := map[string][]netip.Addr{
		"d1": {gw, netip.MustParseAddr("10.0.12.2"), netip.MustParseAddr("10.0.23.3")},
		"d2": {gw, netip.MustParseAddr("10.0.12.2"), netip.MustParseAddr("10.0.24.4")},
		"d3": {gw, netip.MustParseAddr("10.0.12.2"), netip.MustParseAddr("10.0.23.3")},
	}
	for _, name := range []string{"d1", "d2", "d3", "d2", "d1"} {
		ch, err := b.routerChain(gw, h[name])
		if err != nil {
			t.Fatal(err)
		}
		var addrs []netip.Addr
		for _, hp := range ch.hops {
			addrs = append(addrs, hp.addr)
		}
		if !slices.Equal(addrs, want[name]) {
			t.Fatalf("chain toward %s = %v, want %v", name, addrs, want[name])
		}
	}
	if len(b.routes) != 2 || len(b.chains) != 2 {
		t.Fatalf("five lookups walked %d times into %d chains, want 2 walks (d1, d2) and 2 chains", len(b.routes), len(b.chains))
	}
	if b.routes[0].bits != 25 {
		t.Fatalf("the chain through r2 is remembered under /%d, want /25", b.routes[0].bits)
	}
}
