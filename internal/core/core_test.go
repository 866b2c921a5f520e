package core

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/netsim"
	"remos/internal/sim"
	"remos/internal/topology"
)

// twoSites builds a CMU/ETH-like pair of sites joined by a 10 Mbit WAN:
//
//	cmu: app1, app2, bench-cmu - swC - rC ==WAN== rE - swE - bench-eth, srv1
func twoSites(t testing.TB) (*Deployment, map[string]*netsim.Device) {
	t.Helper()
	s := sim.NewSim()
	n := netsim.New(s)
	d := map[string]*netsim.Device{}
	for _, h := range []string{"app1", "app2", "benchC", "benchE", "srv1"} {
		d[h] = n.AddHost(h)
	}
	d["swC"] = n.AddSwitch("swC")
	d["swE"] = n.AddSwitch("swE")
	d["rC"] = n.AddRouter("rC")
	d["rE"] = n.AddRouter("rE")
	n.Connect(d["app1"], d["swC"], 100e6, time.Millisecond)
	n.Connect(d["app2"], d["swC"], 100e6, time.Millisecond)
	n.Connect(d["benchC"], d["swC"], 100e6, time.Millisecond)
	n.Connect(d["swC"], d["rC"], 1e9, time.Millisecond)
	n.Connect(d["rC"], d["rE"], 10e6, 40*time.Millisecond)
	n.Connect(d["rE"], d["swE"], 1e9, time.Millisecond)
	n.Connect(d["benchE"], d["swE"], 100e6, time.Millisecond)
	n.Connect(d["srv1"], d["swE"], 100e6, time.Millisecond)
	n.AssignSubnets()
	n.ComputeRoutes()

	dep := NewDeployment(s, n, Options{})
	if _, err := dep.AddSite(SiteSpec{
		Name:      "cmu",
		Switches:  []*netsim.Device{d["swC"]},
		BenchHost: d["benchC"],
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.AddSite(SiteSpec{
		Name:      "eth",
		Switches:  []*netsim.Device{d["swE"]},
		BenchHost: d["benchE"],
	}); err != nil {
		t.Fatal(err)
	}
	if err := dep.Finish(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Stop)
	return dep, d
}

func TestSitePrefixesDerived(t *testing.T) {
	dep, d := twoSites(t)
	cmu := dep.Sites["cmu"]
	found := false
	for _, p := range cmu.Prefixes() {
		if p.Contains(d["app1"].Addr()) {
			found = true
		}
	}
	if !found {
		t.Fatalf("cmu prefixes %v do not cover app1 %v", cmu.Prefixes(), d["app1"].Addr())
	}
}

func TestIntraSiteQueryThroughMaster(t *testing.T) {
	dep, d := twoSites(t)
	m := dep.Sites["cmu"].Master
	res, err := m.Collect(collector.Query{
		Hosts: []netip.Addr{d["app1"].Addr(), d["app2"].Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	// app1 - swC - app2.
	if _, err := res.Graph.Path(d["app1"].Addr().String(), d["app2"].Addr().String()); err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Graph.Nodes() {
		if n.ID == "wan:cmu-eth" {
			t.Fatal("intra-site query pulled in the WAN")
		}
	}
}

func TestCrossSiteQueryEndToEnd(t *testing.T) {
	dep, d := twoSites(t)
	if err := dep.MeasureAllBenchmarks(); err != nil {
		t.Fatal(err)
	}
	m := dep.Sites["cmu"].Master
	res, err := m.Collect(collector.Query{
		Hosts: []netip.Addr{d["app1"].Addr(), d["srv1"].Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	preds, err := res.Graph.FlowAlloc([]topology.FlowRequest{{Src: d["app1"].Addr().String(), Dst: d["srv1"].Addr().String()}})
	if err != nil {
		t.Fatalf("no end-to-end path: %v", err)
	}
	// The WAN benchmark measured ~10 Mbit/s; it is the bottleneck.
	if bw, path := preds[0].Available, preds[0].Path; math.Abs(bw-10e6) > 1e6 {
		t.Fatalf("end-to-end available bandwidth %v, want ~10e6 (path %v)", bw, path)
	}
}

func TestCrossSiteFlowQueryOnMergedGraph(t *testing.T) {
	dep, d := twoSites(t)
	if err := dep.MeasureAllBenchmarks(); err != nil {
		t.Fatal(err)
	}
	m := dep.Sites["cmu"].Master
	res, err := m.Collect(collector.Query{
		Hosts: []netip.Addr{d["app1"].Addr(), d["app2"].Addr(), d["srv1"].Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	preds, err := res.Graph.FlowAlloc([]topology.FlowRequest{
		{Src: d["app1"].Addr().String(), Dst: d["srv1"].Addr().String()},
		{Src: d["app2"].Addr().String(), Dst: d["srv1"].Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both flows share the ~10 Mbit WAN: ~5 Mbit each.
	for i, p := range preds {
		if math.Abs(p.Available-5e6) > 1e6 {
			t.Fatalf("flow %d predicted %v, want ~5e6", i, p.Available)
		}
	}
}

func TestBenchmarkRoundsAccumulate(t *testing.T) {
	dep, _ := twoSites(t)
	// Periodic probing on the default 30s interval.
	dep.Sim.RunFor(3 * time.Minute)
	if r := dep.Sites["cmu"].Bench.Rounds(); r < 3 {
		t.Fatalf("cmu bench rounds = %d, want >=3 after 3 minutes", r)
	}
}

func TestDuplicateSiteRejected(t *testing.T) {
	s := sim.NewSim()
	n := netsim.New(s)
	h := n.AddHost("h")
	sw := n.AddSwitch("sw")
	n.Connect(h, sw, 1e6, 0)
	n.AssignSubnets()
	n.ComputeRoutes()
	dep := NewDeployment(s, n, Options{})
	if _, err := dep.AddSite(SiteSpec{Name: "x", Switches: []*netsim.Device{sw}}); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.AddSite(SiteSpec{Name: "x"}); err == nil {
		t.Fatal("duplicate site accepted")
	}
}
