package topology

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"remos/internal/maxmin"
)

// randomTree builds a random tree-shaped topology: hosts hanging off a
// random arrangement of switches and routers, like the LANs the
// collectors produce. Returns the graph and its host IDs.
func randomTree(rng *rand.Rand) (*Graph, []string) {
	g := NewGraph()
	nInterior := 2 + rng.Intn(6)
	interior := make([]string, nInterior)
	for i := range interior {
		kind := SwitchNode
		if rng.Intn(3) == 0 {
			kind = RouterNode
		}
		id := fmt.Sprintf("n%d", i)
		interior[i] = id
		g.AddNode(Node{ID: id, Kind: kind})
		if i > 0 {
			parent := interior[rng.Intn(i)]
			g.AddLink(Link{
				From: parent, To: id,
				Capacity:   float64(10+rng.Intn(90)) * 1e6,
				UtilFromTo: float64(rng.Intn(9)) * 1e6,
				UtilToFrom: float64(rng.Intn(9)) * 1e6,
				Latency:    time.Duration(rng.Intn(10)) * time.Millisecond,
				Jitter:     time.Duration(rng.Intn(3)) * time.Millisecond,
			})
		}
	}
	nHosts := 2 + rng.Intn(6)
	hosts := make([]string, nHosts)
	for i := range hosts {
		id := fmt.Sprintf("h%d", i)
		hosts[i] = id
		g.AddNode(Node{ID: id, Kind: HostNode})
		g.AddLink(Link{
			From: interior[rng.Intn(nInterior)], To: id,
			Capacity: 100e6,
			Latency:  time.Millisecond,
		})
	}
	return g, hosts
}

// Property: pruning to a set of endpoints and collapsing chains never
// changes the bottleneck-available answer between those endpoints.
func TestPropertySimplificationPreservesAnswers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, hosts := randomTree(rng)
		a, b := hosts[0], hosts[1]
		want, _, err := loneFlow(g, a, b)
		if err != nil {
			return false
		}
		p, err := g.Prune(hosts[:2])
		if err != nil {
			t.Logf("prune: %v", err)
			return false
		}
		p.CollapseChains(map[string]bool{a: true, b: true})
		got, _, err := loneFlow(p, a, b)
		if err != nil {
			t.Logf("post-simplify path lost: %v", err)
			return false
		}
		if math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Logf("avail changed: %v -> %v", want, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: simplification never changes latency between the endpoints
// either (chains sum their latencies).
func TestPropertySimplificationPreservesLatency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		g, hosts := randomTree(rng)
		a, b := hosts[0], hosts[1]
		before, err := g.FlowAlloc([]FlowRequest{{Src: a, Dst: b}})
		if err != nil {
			return false
		}
		p, err := g.Prune(hosts[:2])
		if err != nil {
			return false
		}
		p.CollapseChains(map[string]bool{a: true, b: true})
		after, err := p.FlowAlloc([]FlowRequest{{Src: a, Dst: b}})
		if err != nil {
			return false
		}
		return before[0].Latency == after[0].Latency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomClouded builds a random topology whose switch fabrics are real
// clouds: a router backbone whose links can bottleneck, a multi-switch
// component per router with overprovisioned interior links, and hosts
// on 100 Mb/s access links. CollapseSwitchClouds drops cloud-interior
// links, so simplification preserves flow answers exactly when the
// fabric never constrains a flow — the shape of real collected LANs,
// where a shared segment's uplinks, not its backplane, are the scarce
// links. The generator keeps the whole graph a tree so paths are
// unique and answers are deterministic.
func randomClouded(rng *rand.Rand) (*Graph, []string) {
	g := NewGraph()
	nR := 2 + rng.Intn(3)
	routers := make([]string, nR)
	for i := range routers {
		id := fmt.Sprintf("r%d", i)
		routers[i] = id
		g.AddNode(Node{ID: id, Kind: RouterNode})
		if i > 0 {
			g.AddLink(Link{
				From: routers[rng.Intn(i)], To: id,
				Capacity:   float64(20+rng.Intn(80)) * 1e6,
				UtilFromTo: float64(rng.Intn(9)) * 1e6,
				UtilToFrom: float64(rng.Intn(9)) * 1e6,
				Latency:    time.Duration(1+rng.Intn(10)) * time.Millisecond,
			})
		}
	}
	var switches []string
	for ri, r := range routers {
		nS := 2 + rng.Intn(3)
		cloud := make([]string, nS)
		for si := range cloud {
			id := fmt.Sprintf("c%d_s%d", ri, si)
			cloud[si] = id
			g.AddNode(Node{ID: id, Kind: SwitchNode})
			if si > 0 {
				// Interior fabric link: never the bottleneck.
				g.AddLink(Link{
					From: cloud[rng.Intn(si)], To: id,
					Capacity: 10e9,
					Latency:  10 * time.Microsecond,
				})
			}
		}
		// The cloud's uplink is external to it and survives collapse.
		g.AddLink(Link{
			From: cloud[0], To: r,
			Capacity:   float64(50+rng.Intn(50)) * 1e6,
			UtilFromTo: float64(rng.Intn(9)) * 1e6,
			UtilToFrom: float64(rng.Intn(9)) * 1e6,
			Latency:    time.Millisecond,
		})
		switches = append(switches, cloud...)
	}
	nHosts := 3 + rng.Intn(4)
	hosts := make([]string, nHosts)
	for i := range hosts {
		id := fmt.Sprintf("h%d", i)
		hosts[i] = id
		g.AddNode(Node{ID: id, Kind: HostNode})
		g.AddLink(Link{
			From: switches[rng.Intn(len(switches))], To: id,
			Capacity: 100e6,
			Latency:  time.Millisecond,
		})
	}
	return g, hosts
}

// flowBottleneck is the sharing-oblivious per-flow answer, computed by
// maxmin.Bottleneck over the flow's directed residual capacities.
func flowBottleneck(g *Graph, src, dst string) (float64, error) {
	hops, err := g.routing().search(src, dst)
	if err != nil {
		return 0, err
	}
	caps := make([]float64, len(hops))
	links := make([]int, len(hops))
	for i, h := range hops {
		if l := g.links[h>>1]; h&1 == 0 {
			caps[i] = l.AvailFromTo()
		} else {
			caps[i] = l.AvailToFrom()
		}
		links[i] = i
	}
	return maxmin.Bottleneck(caps, maxmin.Flow{Links: links})
}

// Property: the Modeler's full simplification pipeline — Prune to the
// endpoints, CollapseSwitchClouds, CollapseChains — preserves both the
// max-min allocation and the maxmin.Bottleneck answer of every
// requested flow, for random clouded topologies and flow sets.
func TestPropertyFullSimplificationPreservesMaxMin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0xc10d))
		g, hosts := randomClouded(rng)
		nFlows := 2 + rng.Intn(3)
		reqs := make([]FlowRequest, nFlows)
		protect := make(map[string]bool)
		var endpoints []string
		for i := range reqs {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			for dst == src {
				dst = hosts[rng.Intn(len(hosts))]
			}
			reqs[i] = FlowRequest{Src: src, Dst: dst}
			for _, id := range []string{src, dst} {
				if !protect[id] {
					protect[id] = true
					endpoints = append(endpoints, id)
				}
			}
		}
		want, err := g.FlowAlloc(reqs)
		if err != nil {
			t.Logf("alloc: %v", err)
			return false
		}
		wantBn := make([]float64, nFlows)
		for i, rq := range reqs {
			if wantBn[i], err = flowBottleneck(g, rq.Src, rq.Dst); err != nil {
				t.Logf("bottleneck: %v", err)
				return false
			}
		}

		p, err := g.Prune(endpoints)
		if err != nil {
			t.Logf("prune: %v", err)
			return false
		}
		p.CollapseSwitchClouds("vswitch")
		p.CollapseChains(protect)

		got, err := p.FlowAlloc(reqs)
		if err != nil {
			t.Logf("post-simplify alloc: %v", err)
			return false
		}
		for i := range reqs {
			if math.Abs(got[i].Available-want[i].Available) > 1e-6*math.Max(1, want[i].Available) {
				t.Logf("flow %d %s->%s: max-min %v -> %v",
					i, reqs[i].Src, reqs[i].Dst, want[i].Available, got[i].Available)
				return false
			}
			bn, err := flowBottleneck(p, reqs[i].Src, reqs[i].Dst)
			if err != nil {
				t.Logf("post-simplify bottleneck: %v", err)
				return false
			}
			if math.Abs(bn-wantBn[i]) > 1e-6*math.Max(1, wantBn[i]) {
				t.Logf("flow %d %s->%s: bottleneck %v -> %v",
					i, reqs[i].Src, reqs[i].Dst, wantBn[i], bn)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: wire encodings round-trip random tree graphs exactly,
// including the jitter extension.
func TestPropertyTreeEncodingRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0x7ee))
		g, _ := randomTree(rng)
		var tb, xb bytes.Buffer
		if g.EncodeText(&tb) != nil || g.EncodeXML(&xb) != nil {
			return false
		}
		gt, err1 := DecodeText(&tb)
		gx, err2 := DecodeXML(&xb)
		if err1 != nil || err2 != nil {
			return false
		}
		return graphsEqual(g, gt) && graphsEqual(g, gx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
