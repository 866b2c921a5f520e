package snmpcoll

import (
	"math"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/mib"
	"remos/internal/netsim"
	"remos/internal/snmp"
	"remos/internal/topology"
)

// Failure-injection tests: the robustness properties Section 6.2 calls
// out (network failures, reboots, agents going dark) must degrade the
// collector gracefully, never corrupt its data.

func TestRouterRebootDetectedAndRecovered(t *testing.T) {
	st := newSite(t, nil)
	q := collector.Query{Hosts: []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")}}
	if _, err := st.sc.Collect(q); err != nil {
		t.Fatal(err)
	}
	st.s.RunFor(20 * time.Second)
	// Reboot r1: uptime restarts, counters zero.
	st.n.Reboot(st.d["r1"])
	st.s.RunFor(time.Second)
	// The next query must succeed and silently refresh the cache.
	if _, err := st.sc.Collect(q); err != nil {
		t.Fatalf("query after reboot failed: %v", err)
	}
	// And subsequent measurements stay sane.
	st.n.StartFlow(st.d["h1"], st.d["h2"], netsim.FlowSpec{Demand: 3e6})
	st.s.RunFor(15 * time.Second)
	util, ok := st.sc.Utilization("r1", "r2")
	if !ok {
		t.Fatal("no utilization after reboot recovery")
	}
	if math.Abs(util-3e6) > 5e5 {
		t.Fatalf("post-reboot utilization %v, want ~3e6", util)
	}
}

func TestRebootDoesNotProduceBogusSpike(t *testing.T) {
	st := newSite(t, nil)
	q := collector.Query{Hosts: []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")}}
	st.n.StartFlow(st.d["h1"], st.d["h2"], netsim.FlowSpec{Demand: 5e6})
	if _, err := st.sc.Collect(q); err != nil {
		t.Fatal(err)
	}
	// Accumulate counters, then reboot between polls: the counter goes
	// backwards, which naive delta code would read as a near-2^32 wrap.
	st.s.RunFor(60 * time.Second)
	st.n.Reboot(st.d["r1"])
	st.s.RunFor(30 * time.Second)
	hist := st.sc.pred.History().Get(collector.HistKey{From: "r1", To: "r2"})
	for _, s := range hist {
		if s.Bits > 100e6 {
			t.Fatalf("bogus utilization spike %v bits/s recorded after reboot", s.Bits)
		}
	}
}

func TestAgentGoesDarkQueryFails(t *testing.T) {
	st := newSite(t, nil)
	q := collector.Query{Hosts: []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")}}
	if _, err := st.sc.Collect(q); err != nil {
		t.Fatal(err)
	}
	// Silence r2's agent on all its addresses.
	for _, ifc := range st.d["r2"].Ifaces() {
		if ifc.IP.IsValid() {
			st.reg.Unregister(ifc.IP.String())
		}
	}
	if _, err := st.sc.Collect(q); err == nil {
		t.Fatal("query succeeded with a dead router agent; liveness check missing")
	}
}

func TestPollerSurvivesDarkAgent(t *testing.T) {
	st := newSite(t, nil)
	q := collector.Query{Hosts: []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")}}
	st.n.StartFlow(st.d["h1"], st.d["h2"], netsim.FlowSpec{Demand: 2e6})
	if _, err := st.sc.Collect(q); err != nil {
		t.Fatal(err)
	}
	st.s.RunFor(12 * time.Second)
	// Kill r1's agent: polling must keep working for other devices and
	// must not panic or wedge.
	for _, ifc := range st.d["r1"].Ifaces() {
		if ifc.IP.IsValid() {
			st.reg.Unregister(ifc.IP.String())
		}
	}
	before := latestSample(st, collector.HistKey{From: "r2", To: "swB-side"})
	_ = before
	st.s.RunFor(30 * time.Second)
	// History for links polled at live agents keeps advancing: swB's
	// ports are polled at the switch, which is still up.
	hist := st.sc.pred.History()
	advanced := false
	cutoff := st.s.Now().Add(-10 * time.Second)
	for _, k := range hist.Keys() {
		if s, ok := hist.Latest(k); ok && s.T.After(cutoff) {
			advanced = true
		}
	}
	if !advanced {
		t.Fatal("no history advanced after one agent died; poller wedged")
	}
}

func latestSample(st *site, k collector.HistKey) collector.Sample {
	s, _ := st.sc.pred.History().Latest(k)
	return s
}

func TestDarkAgentRecoversAfterReregistration(t *testing.T) {
	st := newSite(t, nil)
	q := collector.Query{Hosts: []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")}}
	st.n.StartFlow(st.d["h1"], st.d["h2"], netsim.FlowSpec{Demand: 2e6})
	if _, err := st.sc.Collect(q); err != nil {
		t.Fatal(err)
	}
	st.s.RunFor(12 * time.Second)
	// Take r1 down, then bring it back.
	agents := map[string]bool{}
	for _, ifc := range st.d["r1"].Ifaces() {
		if ifc.IP.IsValid() {
			agents[ifc.IP.String()] = true
			st.reg.Unregister(ifc.IP.String())
		}
	}
	st.s.RunFor(20 * time.Second)
	// Re-attach (same device view; fresh agent object is fine).
	agent := &snmp.Agent{Community: "public", View: mib.NewDeviceView(st.n, st.d["r1"])}
	for a := range agents {
		st.reg.Register(a, agent)
	}
	st.s.RunFor(20 * time.Second)
	if _, err := st.sc.Collect(q); err != nil {
		t.Fatalf("query after agent recovery failed: %v", err)
	}
	util, ok := st.sc.Utilization("r1", "r2")
	if !ok || math.Abs(util-2e6) > 5e5 {
		t.Fatalf("utilization after recovery = %v (ok=%v), want ~2e6", util, ok)
	}
}

func TestUnresolvableHostGetsVirtualAttachment(t *testing.T) {
	// A queried address whose MAC cannot be resolved (no ARP entry, no
	// configuration) is unverifiable, but the collector still answers:
	// the host is attached through a virtual switch — the paper's
	// representation for whatever it cannot see inside. The query never
	// wedges the collector.
	st := newSite(t, nil)
	ghost := netip.MustParseAddr("10.0.16.250") // h1's subnet, never attached
	res, err := st.sc.Collect(collector.Query{Hosts: []netip.Addr{addrOf(st, "h1"), ghost}})
	if err != nil {
		t.Fatalf("ghost query failed hard: %v", err)
	}
	virtual := false
	for _, n := range res.Graph.Nodes() {
		if n.Kind == topology.VirtualNode {
			virtual = true
		}
	}
	if !virtual {
		t.Fatal("unresolvable host not represented through a virtual switch")
	}
	if _, err := res.Graph.Path(addrOf(st, "h1").String(), ghost.String()); err != nil {
		t.Fatalf("ghost not connected in the answer: %v", err)
	}
	// The collector remains fully usable afterwards.
	if _, err := st.sc.Collect(collector.Query{
		Hosts: []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")},
	}); err != nil {
		t.Fatalf("collector wedged after ghost query: %v", err)
	}
}

// TestRouteChangeBehindRebootFollowsNewRoutes: a router that reboots onto
// new routes gets its tables re-read by the query that notices, and the
// next query follows the new tables hop by hop — no chain walked through
// the old ones outlives the query that walked it. Here ra-mid-rb gains a
// direct ra-rb link: the query after the one that detects the reboots
// must answer like a collector that never saw the old routes.
func TestRouteChangeBehindRebootFollowsNewRoutes(t *testing.T) {
	// The middle router is made first so the link added later is the last
	// broadcast domain AssignSubnets meets: nothing else is renumbered.
	st := newSiteOn(t, nil, func(n *netsim.Network, d map[string]*netsim.Device) {
		d["ha"], d["hb"] = n.AddHost("ha"), n.AddHost("hb")
		d["sa"], d["sb"] = n.AddSwitch("sa"), n.AddSwitch("sb")
		d["mid"], d["ra"], d["rb"] = n.AddRouter("mid"), n.AddRouter("ra"), n.AddRouter("rb")
		n.Connect(d["ha"], d["sa"], 100e6, time.Millisecond)
		n.Connect(d["sa"], d["ra"], 1e9, time.Millisecond)
		n.Connect(d["ra"], d["mid"], 10e6, 5*time.Millisecond)
		n.Connect(d["mid"], d["rb"], 10e6, 5*time.Millisecond)
		n.Connect(d["rb"], d["sb"], 1e9, time.Millisecond)
		n.Connect(d["hb"], d["sb"], 100e6, time.Millisecond)
	})
	hosts := []netip.Addr{addrOf(st, "ha"), addrOf(st, "hb")}
	q := collector.Query{Hosts: hosts}
	// A reboot shows as sysUpTime below the last one a query saw: let the
	// routers be seen 20 s up.
	st.s.RunFor(20 * time.Second)
	res, err := st.sc.Collect(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.Node("mid") == nil || res.Graph.FindLink("ra", "rb") != nil {
		t.Fatalf("before the change the path should run through mid: %v", ids(res.Graph))
	}

	st.n.Connect(st.d["ra"], st.d["rb"], 10e6, 5*time.Millisecond)
	st.n.AssignSubnets()
	st.n.ComputeRoutes()
	if got := []netip.Addr{addrOf(st, "ha"), addrOf(st, "hb")}; !slices.Equal(got, hosts) {
		t.Fatalf("the new link renumbered the hosts: %v, were %v", got, hosts)
	}
	mib.AttachAll(st.n, st.reg) // agents on the new interfaces too
	st.n.Reboot(st.d["ra"])
	st.n.Reboot(st.d["rb"])
	st.s.RunFor(time.Second)

	// The detecting query discovers from what it had cached, then finds
	// both routers rebooted and re-reads them.
	if _, err := st.sc.Collect(q); err != nil {
		t.Fatalf("query that detects the reboots: %v", err)
	}
	res, err = st.sc.Collect(q)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(st.sc.cfg)
	t.Cleanup(fresh.Stop)
	want, _, err := fresh.ReferenceCollect(q)
	if err != nil {
		t.Fatal(err)
	}
	// The graphs only: st.sc's poll points include the old path's.
	graphOf := func(c *Collector, g *topology.Graph) string {
		lines := strings.SplitAfter(CanonicalDiscovery(c, g), "\n")
		return strings.Join(slices.DeleteFunc(lines, func(l string) bool { return strings.HasPrefix(l, "monitor ") }), "")
	}
	if g, w := graphOf(st.sc, res.Graph), graphOf(fresh, want.Graph); g != w {
		t.Fatalf("the query after the detecting one\n%s--- a collector that never saw the old routes\n%s%s", g, w, firstDiff(g, w))
	}
	if res.Graph.Node("mid") != nil || res.Graph.FindLink("ra", "rb") == nil {
		t.Fatalf("after the change the path should be ra-rb direct: %v", ids(res.Graph))
	}
}
