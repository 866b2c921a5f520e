package snmpcoll

import (
	"context"
	"math"
	"net/netip"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/collector/bridgecoll"
	"remos/internal/mib"
	"remos/internal/netsim"
	"remos/internal/sim"
	"remos/internal/snmp"
	"remos/internal/topology"
)

// site builds a routed+switched testbed:
//
//	h1 - swA - r1 - r2 - swB - h2
//	h3 -/                  \- h4
//
// with agents attached and a bridge collector covering both switches.
type site struct {
	s      *sim.Sim
	n      *netsim.Network
	d      map[string]*netsim.Device
	reg    *snmp.Registry
	tr     snmp.Transport
	bridge *bridgecoll.Collector
	sc     *Collector
}

func newSite(t testing.TB, cfgMut func(*Config)) *site {
	t.Helper()
	return newSiteOn(t, cfgMut, func(n *netsim.Network, d map[string]*netsim.Device) {
		for _, h := range []string{"h1", "h2", "h3", "h4"} {
			d[h] = n.AddHost(h)
		}
		d["swA"] = n.AddSwitch("swA")
		d["swB"] = n.AddSwitch("swB")
		d["r1"] = n.AddRouter("r1")
		d["r2"] = n.AddRouter("r2")
		n.Connect(d["h1"], d["swA"], 100e6, time.Millisecond)
		n.Connect(d["h3"], d["swA"], 100e6, time.Millisecond)
		n.Connect(d["swA"], d["r1"], 1e9, time.Millisecond)
		n.Connect(d["r1"], d["r2"], 10e6, 10*time.Millisecond)
		n.Connect(d["r2"], d["swB"], 1e9, time.Millisecond)
		n.Connect(d["h2"], d["swB"], 100e6, time.Millisecond)
		n.Connect(d["h4"], d["swB"], 100e6, time.Millisecond)
	})
}

// newSiteOn is newSite over a network of the test's own building: wire
// adds the devices to n and names them in d.
func newSiteOn(t testing.TB, cfgMut func(*Config), wire func(n *netsim.Network, d map[string]*netsim.Device)) *site {
	t.Helper()
	s := sim.NewSim()
	n := netsim.New(s)
	d := map[string]*netsim.Device{}
	wire(n, d)
	n.AssignSubnets()
	n.ComputeRoutes()
	st := siteOver(t, s, n, cfgMut)
	st.d = d
	t.Cleanup(st.stop)
	return st
}

// siteOver attaches agents to a finished network and starts a Bridge
// Collector over all its switches and an SNMP Collector beside it; stop
// stops both.
func siteOver(t testing.TB, s *sim.Sim, n *netsim.Network, cfgMut func(*Config)) *site {
	t.Helper()
	reg := snmp.NewRegistry()
	mib.AttachAll(n, reg)
	tr := &snmp.InProc{Registry: reg, Latency: func(string) time.Duration { return 2 * time.Millisecond }}
	var switches []netip.Addr
	for _, dev := range n.Devices() {
		if dev.Kind == netsim.Switch {
			switches = append(switches, dev.ManagementAddr())
		}
	}
	bc := bridgecoll.New(bridgecoll.Config{
		Client:   snmp.NewClient(tr, "public"),
		Sched:    s,
		Switches: switches,
	})
	if err := bc.Start(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name:      "snmp-test",
		Transport: tr,
		Community: "public",
		Sched:     s,
		GatewayOf: func(h netip.Addr) (netip.Addr, bool) {
			dev := n.DeviceByIP(h)
			if dev == nil || !dev.Gateway.IsValid() {
				return netip.Addr{}, false
			}
			return dev.Gateway, true
		},
		ResolveMAC: func(ip netip.Addr) (collector.MAC, bool) {
			ifc := n.IfaceByIP(ip)
			if ifc == nil {
				return collector.MAC{}, false
			}
			return collector.MAC(ifc.MAC), true
		},
		Bridge: bc,
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	return &site{s: s, n: n, reg: reg, tr: tr, bridge: bc, sc: New(cfg)}
}

func (st *site) stop() {
	st.sc.Stop()
	st.bridge.Stop()
}

func addrOf(st *site, name string) netip.Addr { return st.d[name].Addr() }

func TestTopologyDiscoveryCrossSite(t *testing.T) {
	st := newSite(t, nil)
	res, stats, err := st.sc.CollectWithStats(collector.Query{
		Hosts: []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	// Expect h1, swA, r1, r2, swB, h2 = 6 nodes, 5 links.
	if len(g.Nodes()) != 6 {
		t.Fatalf("nodes = %d, want 6: %v", len(g.Nodes()), ids(g))
	}
	if len(g.Links()) != 5 {
		t.Fatalf("links = %d, want 5", len(g.Links()))
	}
	path, err := g.Path(addrOf(st, "h1").String(), addrOf(st, "h2").String())
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 6 {
		t.Fatalf("path length %d, want 6: %v", len(path), path)
	}
	// WAN bottleneck capacity discovered from ifSpeed.
	r1 := "r1"
	r2 := "r2"
	l := g.FindLink(r1, r2)
	if l == nil || l.Capacity != 10e6 {
		t.Fatalf("WAN link %+v, want capacity 10e6", l)
	}
	if stats.Requests == 0 || stats.RTT == 0 {
		t.Fatal("query cost not metered")
	}
	if !stats.ColdStart {
		t.Fatal("first query should be a cold start")
	}
}

func ids(g *topology.Graph) []string {
	var out []string
	for _, n := range g.Nodes() {
		out = append(out, n.ID)
	}
	return out
}

func TestSameLANQueryIsPureL2(t *testing.T) {
	st := newSite(t, nil)
	res, err := st.sc.Collect(collector.Query{
		Hosts: []netip.Addr{addrOf(st, "h1"), addrOf(st, "h3")},
	})
	if err != nil {
		t.Fatal(err)
	}
	// h1 - swA - h3: 3 nodes, 2 links; no routers.
	if len(res.Graph.Nodes()) != 3 {
		t.Fatalf("nodes = %v", ids(res.Graph))
	}
	for _, n := range res.Graph.Nodes() {
		if n.Kind == topology.RouterNode {
			t.Fatal("router appeared in same-LAN query")
		}
	}
}

func TestUtilizationAfterPolling(t *testing.T) {
	st := newSite(t, nil)
	h1, h2 := addrOf(st, "h1"), addrOf(st, "h2")
	// Load the WAN: 4 Mbit/s.
	if _, err := st.n.StartFlow(st.d["h1"], st.d["h2"], netsim.FlowSpec{Demand: 4e6}); err != nil {
		t.Fatal(err)
	}
	// First query registers monitors (cold).
	if _, stats, err := st.sc.CollectWithStats(collector.Query{Hosts: []netip.Addr{h1, h2}}); err != nil {
		t.Fatal(err)
	} else if !stats.ColdStart {
		t.Fatal("expected cold start")
	}
	// Two poll intervals later the delta is available.
	st.s.RunFor(11 * time.Second)
	res, stats, err := st.sc.CollectWithStats(collector.Query{Hosts: []netip.Addr{h1, h2}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ColdStart {
		t.Fatal("second query should be warm")
	}
	r1 := "r1"
	r2 := "r2"
	l := res.Graph.FindLink(r1, r2)
	fwd := l.UtilFromTo
	if l.From != r1 {
		fwd = l.UtilToFrom
	}
	if math.Abs(fwd-4e6) > 4e5 {
		t.Fatalf("measured WAN utilization %v, want ~4e6", fwd)
	}
}

func TestWarmQueryCheaperThanCold(t *testing.T) {
	st := newSite(t, nil)
	q := collector.Query{Hosts: []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2"), addrOf(st, "h3"), addrOf(st, "h4")}}
	_, cold, err := st.sc.CollectWithStats(q)
	if err != nil {
		t.Fatal(err)
	}
	st.s.RunFor(6 * time.Second)
	_, warm, err := st.sc.CollectWithStats(q)
	if err != nil {
		t.Fatal(err)
	}
	// Cold, each router is walked and asked for its hosts' ARP entries,
	// each switch confirms its stations in the Get that also reads its
	// new poll points' baselines, and r1 has its WAN interface's baseline
	// read: 2+2+2+1. Warm, each cached router answers one liveness check
	// and each switch one confirm: 2+2.
	if cold.Requests != 7 || warm.Requests != 4 {
		t.Fatalf("cold query %d reqs, warm %d; want 7 and 4", cold.Requests, warm.Requests)
	}
}

func TestRouteCacheAblation(t *testing.T) {
	stCached := newSite(t, nil)
	stNo := newSite(t, nil)
	q := func(st *site) collector.Query {
		return collector.Query{Hosts: []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")}}
	}
	// Warm both once, then measure a repeat query, the caches of one
	// dropped before it.
	if _, _, err := stCached.sc.CollectWithStats(q(stCached)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := stNo.sc.CollectWithStats(q(stNo)); err != nil {
		t.Fatal(err)
	}
	_, a, _ := stCached.sc.CollectWithStats(q(stCached))
	stNo.sc.DropCaches()
	_, b, _ := stNo.sc.CollectWithStats(q(stNo))
	if a.Requests >= b.Requests {
		t.Fatalf("cache-disabled repeat query (%d reqs) should exceed cached (%d reqs)",
			b.Requests, a.Requests)
	}
}

func TestPollerRecordsHistory(t *testing.T) {
	st := newSite(t, nil)
	h1, h2 := addrOf(st, "h1"), addrOf(st, "h2")
	st.n.StartFlow(st.d["h1"], st.d["h2"], netsim.FlowSpec{Demand: 2e6})
	if _, err := st.sc.Collect(collector.Query{Hosts: []netip.Addr{h1, h2}}); err != nil {
		t.Fatal(err)
	}
	st.s.RunFor(60 * time.Second)
	res, err := st.sc.Collect(collector.Query{Hosts: []netip.Addr{h1, h2}, WithHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	r1 := "r1"
	r2 := "r2"
	hist := res.History[collector.HistKey{From: r1, To: r2}]
	if len(hist) < 10 {
		t.Fatalf("WAN history has %d samples after 60s at 5s polls, want >=10", len(hist))
	}
	last := hist[len(hist)-1]
	if math.Abs(last.Bits-2e6) > 2e5 {
		t.Fatalf("history sample %v, want ~2e6", last.Bits)
	}
}

func TestVirtualSwitchWithoutBridge(t *testing.T) {
	st := newSite(t, func(c *Config) { c.Bridge = nil; c.ResolveMAC = nil })
	res, err := st.sc.Collect(collector.Query{
		Hosts: []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Without L2 detail, hosts attach through virtual switches:
	// h1 - v:r1 - r1 - r2 - v:r2 - h2.
	virtuals := 0
	for _, n := range res.Graph.Nodes() {
		if n.Kind == topology.VirtualNode {
			virtuals++
		}
	}
	if virtuals != 2 {
		t.Fatalf("virtual switches = %d, want 2: %v", virtuals, ids(res.Graph))
	}
	if _, err := res.Graph.Path(addrOf(st, "h1").String(), addrOf(st, "h2").String()); err != nil {
		t.Fatalf("no path through virtual switches: %v", err)
	}
}

func TestEmptyQueryRejected(t *testing.T) {
	st := newSite(t, nil)
	if _, err := st.sc.Collect(collector.Query{}); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestCounterWrapHandled(t *testing.T) {
	st := newSite(t, nil)
	h1, h2 := addrOf(st, "h1"), addrOf(st, "h2")
	// 10 Mbit/s wraps a Counter32 in ~57 min; run past a wrap and check
	// the measured rate stays sane.
	st.n.StartFlow(st.d["h1"], st.d["h2"], netsim.FlowSpec{Demand: 10e6})
	if _, err := st.sc.Collect(collector.Query{Hosts: []netip.Addr{h1, h2}}); err != nil {
		t.Fatal(err)
	}
	st.s.RunFor(4000 * time.Second)
	r1 := "r1"
	r2 := "r2"
	util, ok := st.sc.Utilization(r1, r2)
	if !ok {
		t.Fatal("no utilization recorded")
	}
	if math.Abs(util-10e6) > 1e6 {
		t.Fatalf("post-wrap utilization %v, want ~10e6", util)
	}
}

func TestHostMoveReflectedInNextQuery(t *testing.T) {
	st := newSite(t, nil)
	h1, h3 := addrOf(st, "h1"), addrOf(st, "h3")
	res, err := st.sc.Collect(collector.Query{Hosts: []netip.Addr{h1, h3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Graph.Nodes()) != 3 {
		t.Fatalf("pre-move nodes = %v", ids(res.Graph))
	}
	// Move h3 to the other switch: same subnet, new L2 path.
	st.n.MoveHost(st.d["h3"], st.d["swB"], 100e6, time.Millisecond)
	res, err = st.sc.Collect(collector.Query{Hosts: []netip.Addr{h1, h3}})
	if err != nil {
		t.Fatal(err)
	}
	// Path now crosses swA ... swB; the per-query location verification
	// must have updated the bridge database.
	if len(res.Graph.Nodes()) < 4 {
		t.Fatalf("post-move query still shows old topology: %v", ids(res.Graph))
	}
}

// TestConfirmRebuildsOnANewerBridgeDatabase: a query builds its graph
// again when another query re-walked the bridges after its connect began,
// though every location it then confirms is right — connect may have read
// the old one. Here h3 moves to another port of its switch between the two
// phases, and that re-walk finds it there.
func TestConfirmRebuildsOnANewerBridgeDatabase(t *testing.T) {
	st := newSite(t, nil)
	hosts := []netip.Addr{addrOf(st, "h1"), addrOf(st, "h3")}
	b := startBuild(context.Background(), st.sc, len(hosts))
	b.place(hosts)
	all := []int32{0, 1}
	b.fetchGateways(all)
	b.resolveMACs(all)
	gen := st.bridge.Generation()
	if err := b.connect(); err != nil {
		t.Fatal(err)
	}
	st.n.MoveHost(st.d["h3"], st.d["swA"], 100e6, time.Millisecond)
	if err := st.bridge.SearchStations(nil); err != nil {
		t.Fatal(err)
	}
	rebuild, err := b.confirm(gen)
	if err != nil {
		t.Fatal(err)
	}
	if !rebuild {
		t.Fatal("confirm keeps a graph connect built on a bridge database re-walked since")
	}
	if len(b.moved) != 0 {
		t.Fatalf("confirm found %d stations off their ports in the re-walked database, want none", len(b.moved))
	}
}

// TestBuildSpansABridgeRewalk: a graph begun under one bridge database
// generation and finished under the next — another query re-walked the
// bridges in between, renumbering their links and switches — keeps one
// node per switch and one link per node pair, as a graph keyed by ID
// does, though the second path crosses the first's links the other way.
func TestBuildSpansABridgeRewalk(t *testing.T) {
	st := newSite(t, nil)
	hosts := []netip.Addr{addrOf(st, "h1"), addrOf(st, "h3")}
	b := startBuild(context.Background(), st.sc, len(hosts))
	b.place(hosts)
	b.resolveMACs([]int32{0, 1})
	fold := func(from, to int32) {
		segs, err := b.l2Path(b.at[from].mac, b.at[to].mac)
		if err != nil {
			t.Fatal(err)
		}
		b.addL2Segments(segs, from, to)
	}
	fold(0, 1)
	if err := st.bridge.SearchStations(nil); err != nil {
		t.Fatal(err)
	}
	fold(1, 0)
	g := b.graph()
	if len(g.Nodes()) != 3 || len(g.Links()) != 2 {
		t.Fatalf("h1 -- swA -- h3 folded under two generations: %d nodes %v, %d links", len(g.Nodes()), ids(g), len(g.Links()))
	}
}

func TestDropCachesRestoresColdBehaviour(t *testing.T) {
	st := newSite(t, nil)
	q := collector.Query{Hosts: []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")}}
	_, cold1, _ := st.sc.CollectWithStats(q)
	st.s.RunFor(6 * time.Second)
	_, warm, _ := st.sc.CollectWithStats(q)
	st.sc.DropCaches()
	_, cold2, _ := st.sc.CollectWithStats(q)
	if cold2.Requests <= warm.Requests {
		t.Fatalf("after DropCaches requests = %d, warm = %d", cold2.Requests, warm.Requests)
	}
	if cold2.Requests != cold1.Requests {
		t.Fatalf("cold replay cost %d != original cold %d", cold2.Requests, cold1.Requests)
	}
}

func TestNewRefusesNilClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a Config without a scheduler")
		}
	}()
	New(Config{})
}
