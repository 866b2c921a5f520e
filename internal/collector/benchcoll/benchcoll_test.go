package benchcoll

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

// wan builds three sites joined through a WAN core router:
//
//	a --- ra --- core --- rb --- b
//	               |
//	              rc --- c
//
// with per-site access capacities 50/10/2 Mbit/s.
func wan(t testing.TB) (*sim.Sim, *netsim.Network, map[string]*netsim.Device) {
	t.Helper()
	s := sim.NewSim()
	n := netsim.New(s)
	d := map[string]*netsim.Device{
		"a": n.AddHost("a"), "b": n.AddHost("b"), "c": n.AddHost("c"),
		"ra": n.AddRouter("ra"), "rb": n.AddRouter("rb"), "rc": n.AddRouter("rc"),
		"core": n.AddRouter("core"),
	}
	n.Connect(d["a"], d["ra"], 100e6, time.Millisecond)
	n.Connect(d["b"], d["rb"], 100e6, time.Millisecond)
	n.Connect(d["c"], d["rc"], 100e6, time.Millisecond)
	n.Connect(d["ra"], d["core"], 50e6, 20*time.Millisecond)
	n.Connect(d["rb"], d["core"], 10e6, 30*time.Millisecond)
	n.Connect(d["rc"], d["core"], 2e6, 60*time.Millisecond)
	n.AssignSubnets()
	n.ComputeRoutes()
	return s, n, d
}

func newBench(t testing.TB, s *sim.Sim, n *netsim.Network, d map[string]*netsim.Device) *Collector {
	t.Helper()
	c := New(Config{
		LocalName: "a",
		LocalHost: d["a"].Addr(),
		Peers: []Peer{
			{Name: "b", Host: d["b"].Addr()},
			{Name: "c", Host: d["c"].Addr()},
		},
		Prober:        &NetsimProber{Net: n},
		Sched:         s,
		Interval:      30 * time.Second,
		ProbeDuration: 5 * time.Second,
	})
	t.Cleanup(c.Stop)
	return c
}

func TestMeasureAllFindsBottlenecks(t *testing.T) {
	s, n, d := wan(t)
	c := newBench(t, s, n, d)
	if err := c.MeasureAll(); err != nil {
		t.Fatal(err)
	}
	bw, _, ok := c.Latest("b")
	if !ok || math.Abs(bw-10e6) > 1e5 {
		t.Fatalf("bandwidth to b = %v, want ~10e6", bw)
	}
	bw, _, ok = c.Latest("c")
	if !ok || math.Abs(bw-2e6) > 1e5 {
		t.Fatalf("bandwidth to c = %v, want ~2e6", bw)
	}
}

func TestPeriodicProbingRoundRobin(t *testing.T) {
	s, n, d := wan(t)
	c := newBench(t, s, n, d)
	// 2 peers, one probe per 30s: after 130s both peers have been
	// measured at least twice.
	s.RunFor(130 * time.Second)
	if c.Rounds() < 4 {
		t.Fatalf("rounds = %d, want >=4", c.Rounds())
	}
	if _, _, ok := c.Latest("b"); !ok {
		t.Fatal("peer b never measured")
	}
	if _, _, ok := c.Latest("c"); !ok {
		t.Fatal("peer c never measured")
	}
	// History accumulates per peer.
	hb := c.History().Get(collector.HistKey{From: d["a"].Addr().String(), To: d["b"].Addr().String()})
	if len(hb) < 2 {
		t.Fatalf("history to b has %d samples", len(hb))
	}
}

func TestProbeSeesCrossTraffic(t *testing.T) {
	s, n, d := wan(t)
	c := newBench(t, s, n, d)
	// Competing traffic from c occupies 2 Mbit/s of b's 10 Mbit access
	// (c is capped by its own 2 Mbit uplink), so the probe's fair share
	// toward b is ~8 Mbit/s.
	f, err := n.StartFlow(d["c"], d["b"], netsim.FlowSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MeasureAll(); err != nil {
		t.Fatal(err)
	}
	bw, _, _ := c.Latest("b")
	if math.Abs(bw-8e6) > 5e5 {
		t.Fatalf("probe alongside competing flow measured %v, want ~8e6", bw)
	}
	f.Stop()
}

func TestDemandCappedProbeLessIntrusive(t *testing.T) {
	s, n, d := wan(t)
	stop, err := (&NetsimProber{Net: n}).Start(d["a"].Addr(), d["b"].Addr(), 1e6) // lightweight probe
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(5 * time.Second)
	if bw := stop(); math.Abs(bw-1e6) > 1e5 {
		t.Fatalf("capped probe measured %v, want ~1e6 (its own cap)", bw)
	}
}

func TestCollectGraph(t *testing.T) {
	s, n, d := wan(t)
	c := newBench(t, s, n, d)
	if err := c.MeasureAll(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Collect(collector.Query{
		Hosts:       []netip.Addr{d["a"].Addr(), d["b"].Addr()},
		WithHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	// a, b, one wan virtual node; peer c filtered out.
	if len(g.Nodes()) != 3 {
		t.Fatalf("graph nodes = %d, want 3", len(g.Nodes()))
	}
	preds, err := g.FlowAlloc([]topology.FlowRequest{{Src: d["a"].Addr().String(), Dst: d["b"].Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	if bw := preds[0].Available; math.Abs(bw-10e6) > 1e6 {
		t.Fatalf("graph end-to-end bandwidth %v, want ~10e6", bw)
	}
	if len(res.History) == 0 {
		t.Fatal("history requested but empty")
	}
}

func TestCollectBeforeMeasurement(t *testing.T) {
	s, n, d := wan(t)
	c := newBench(t, s, n, d)
	res, err := c.Collect(collector.Query{Hosts: []netip.Addr{d["a"].Addr(), d["b"].Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	// No measurements yet: only the local node, no WAN edges.
	if len(res.Graph.Links()) != 0 {
		t.Fatalf("unmeasured collector returned %d links", len(res.Graph.Links()))
	}
}

func TestTCPProberLoopback(t *testing.T) {
	sink := &Sink{}
	addr, err := sink.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	ap, err := netip.ParseAddrPort(addr)
	if err != nil {
		t.Fatal(err)
	}
	p := &TCPProber{PortOf: func(netip.Addr) int { return int(ap.Port()) }}
	stop, err := p.Start(netip.MustParseAddr("127.0.0.1"), ap.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	bw := stop()
	if bw <= 0 {
		t.Fatalf("loopback probe measured %v", bw)
	}
	if d, err := p.Delay(netip.MustParseAddr("127.0.0.1"), ap.Addr()); err != nil || d < 0 {
		t.Fatalf("delay = %v err = %v", d, err)
	}
}

func TestTCPProberPacedRate(t *testing.T) {
	sink := &Sink{}
	addr, err := sink.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	ap, _ := netip.ParseAddrPort(addr)
	p := &TCPProber{PortOf: func(netip.Addr) int { return int(ap.Port()) }}
	const target = 40e6 // 40 Mbit/s
	stop, err := p.Start(netip.MustParseAddr("127.0.0.1"), ap.Addr(), target)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	bw := stop()
	if bw > target*1.5 || bw < target*0.3 {
		t.Fatalf("paced probe measured %v, want near %v", bw, target)
	}
}
