package topology

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// sample builds: h1 - s1 - r1 - r2 - s2 - h2, with h3 on s1.
func sample(t testing.TB) *Graph {
	g := NewGraph()
	g.AddNode(Node{ID: "h1", Kind: HostNode, Addr: "10.0.1.2"})
	g.AddNode(Node{ID: "h2", Kind: HostNode, Addr: "10.0.2.2"})
	g.AddNode(Node{ID: "h3", Kind: HostNode, Addr: "10.0.1.3"})
	g.AddNode(Node{ID: "s1", Kind: SwitchNode})
	g.AddNode(Node{ID: "s2", Kind: SwitchNode})
	g.AddNode(Node{ID: "r1", Kind: RouterNode, Addr: "10.0.1.1"})
	g.AddNode(Node{ID: "r2", Kind: RouterNode, Addr: "10.0.2.1"})
	mustLink := func(l Link) {
		if _, err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	mustLink(Link{From: "h1", To: "s1", Capacity: 100e6, Latency: time.Millisecond})
	mustLink(Link{From: "h3", To: "s1", Capacity: 100e6, Latency: time.Millisecond})
	mustLink(Link{From: "s1", To: "r1", Capacity: 100e6, Latency: time.Millisecond})
	mustLink(Link{From: "r1", To: "r2", Capacity: 10e6, UtilFromTo: 4e6, UtilToFrom: 1e6, Latency: 10 * time.Millisecond})
	mustLink(Link{From: "r2", To: "s2", Capacity: 100e6, Latency: time.Millisecond})
	mustLink(Link{From: "s2", To: "h2", Capacity: 100e6, Latency: time.Millisecond})
	return g
}

func TestPath(t *testing.T) {
	g := sample(t)
	p, err := g.Path("h1", "h2")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"h1", "s1", "r1", "r2", "s2", "h2"}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("path = %v, want %v", p, want)
	}
}

func TestPathMissingNode(t *testing.T) {
	g := sample(t)
	if _, err := g.Path("h1", "nope"); err == nil {
		t.Fatal("path to missing node succeeded")
	}
}

func TestPathDisconnected(t *testing.T) {
	g := sample(t)
	g.AddNode(Node{ID: "island", Kind: HostNode})
	if _, err := g.Path("h1", "island"); err == nil {
		t.Fatal("path to island succeeded")
	}
}

func TestFlowAllocUsesDirection(t *testing.T) {
	g := sample(t)
	bw, _, err := loneFlow(g, "h1", "h2")
	if err != nil {
		t.Fatal(err)
	}
	if bw != 6e6 { // 10e6 cap - 4e6 util in r1->r2 direction
		t.Fatalf("h1->h2 avail = %v, want 6e6", bw)
	}
	bw, _, err = loneFlow(g, "h2", "h1")
	if err != nil {
		t.Fatal(err)
	}
	if bw != 9e6 {
		t.Fatalf("h2->h1 avail = %v, want 9e6", bw)
	}
}

func TestFlowAllocSharesResidual(t *testing.T) {
	g := sample(t)
	preds, err := g.FlowAlloc([]FlowRequest{
		{Src: "h1", Dst: "h2"},
		{Src: "h3", Dst: "h2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both flows share the 6e6 residual of the WAN link: 3e6 each.
	for i, p := range preds {
		if math.Abs(p.Available-3e6) > 1 {
			t.Fatalf("flow %d available = %v, want 3e6", i, p.Available)
		}
	}
	if preds[0].Latency != 14*time.Millisecond {
		t.Fatalf("latency = %v, want 14ms", preds[0].Latency)
	}
}

func TestFlowAllocWithDemand(t *testing.T) {
	g := sample(t)
	preds, err := g.FlowAlloc([]FlowRequest{
		{Src: "h1", Dst: "h2", Demand: 1e6},
		{Src: "h3", Dst: "h2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(preds[0].Available-1e6) > 1 || math.Abs(preds[1].Available-5e6) > 1 {
		t.Fatalf("allocs = %v,%v want 1e6,5e6", preds[0].Available, preds[1].Available)
	}
}

func TestMergeUnionsAndKeepsMaxUtil(t *testing.T) {
	a := NewGraph()
	a.AddNode(Node{ID: "x", Kind: RouterNode})
	a.AddNode(Node{ID: "y", Kind: RouterNode})
	a.AddLink(Link{From: "x", To: "y", Capacity: 10e6, UtilFromTo: 1e6})

	b := NewGraph()
	b.AddNode(Node{ID: "y", Kind: RouterNode, Addr: "10.9.9.1"})
	b.AddNode(Node{ID: "z", Kind: HostNode})
	// Same physical link observed with a higher reading, reversed
	// orientation.
	b.AddNode(Node{ID: "x", Kind: RouterNode})
	b.AddLink(Link{From: "y", To: "x", Capacity: 10e6, UtilToFrom: 3e6})
	b.AddLink(Link{From: "y", To: "z", Capacity: 100e6})

	a.Merge(b)
	if len(a.Nodes()) != 3 {
		t.Fatalf("merged nodes = %d, want 3", len(a.Nodes()))
	}
	if len(a.Links()) != 2 {
		t.Fatalf("merged links = %d, want 2", len(a.Links()))
	}
	l := a.FindLink("x", "y")
	if l.UtilFromTo != 3e6 {
		t.Fatalf("merged x->y util = %v, want max(1e6, 3e6)", l.UtilFromTo)
	}
	if a.Node("y").Addr != "10.9.9.1" {
		t.Fatal("merge did not backfill empty address")
	}
}

func TestPruneDropsOffPathNodes(t *testing.T) {
	g := sample(t)
	p, err := g.Prune([]string{"h1", "h2"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Node("h3") != nil {
		t.Fatal("h3 survived pruning to {h1,h2}")
	}
	if p.Node("r1") == nil || len(p.Links()) != 5 {
		t.Fatalf("pruned graph lost the path: %d links", len(p.Links()))
	}
	// Original untouched.
	if g.Node("h3") == nil {
		t.Fatal("Prune mutated the source graph")
	}
}

func TestCollapseChains(t *testing.T) {
	g := sample(t)
	p, err := g.Prune([]string{"h1", "h2"})
	if err != nil {
		t.Fatal(err)
	}
	p.CollapseChains(map[string]bool{"h1": true, "h2": true})
	// s1 and s2 are degree-2 switches: collapsed. Path h1-r1-r2-h2.
	if p.Node("s1") != nil || p.Node("s2") != nil {
		t.Fatal("degree-2 switches survived collapse")
	}
	if p.Node("r1") == nil || p.Node("r2") == nil {
		t.Fatal("routers were collapsed")
	}
	l := p.FindLink("h1", "r1")
	if l == nil {
		t.Fatal("h1-r1 spliced link missing")
	}
	if l.Capacity != 100e6 || l.Latency != 2*time.Millisecond {
		t.Fatalf("spliced link = %+v", l)
	}
	// Flow answers must be unchanged by chain collapse.
	bw, _, err := loneFlow(p, "h1", "h2")
	if err != nil || bw != 6e6 {
		t.Fatalf("post-collapse avail = %v (err %v), want 6e6", bw, err)
	}
}

func TestCollapseChainsPreservesAvailability(t *testing.T) {
	g := NewGraph()
	g.AddNode(Node{ID: "a", Kind: HostNode})
	g.AddNode(Node{ID: "s", Kind: SwitchNode})
	g.AddNode(Node{ID: "b", Kind: HostNode})
	g.AddLink(Link{From: "a", To: "s", Capacity: 10e6, UtilFromTo: 2e6, UtilToFrom: 7e6})
	g.AddLink(Link{From: "s", To: "b", Capacity: 20e6, UtilFromTo: 5e6, UtilToFrom: 1e6})
	// Availabilities before the splice:
	//   a->b: min(10-2, 20-5) = 8
	//   b->a: min(20-1, 10-7) = 3
	g.CollapseChains(nil)
	l := g.FindLink("a", "b")
	if l == nil {
		t.Fatal("no spliced link")
	}
	availAB, availBA := l.AvailFromTo(), l.AvailToFrom()
	if l.From == "b" {
		availAB, availBA = availBA, availAB
	}
	if availAB != 8e6 {
		t.Fatalf("a->b avail = %v, want 8e6", availAB)
	}
	if availBA != 3e6 {
		t.Fatalf("b->a avail = %v, want 3e6", availBA)
	}
	if l.Capacity != 10e6 {
		t.Fatalf("capacity = %v, want bottleneck 10e6", l.Capacity)
	}
}

func TestCollapseSwitchClouds(t *testing.T) {
	// h1 and h2 hang off a 3-switch tree.
	g := NewGraph()
	for _, id := range []string{"sA", "sB", "sC"} {
		g.AddNode(Node{ID: id, Kind: SwitchNode})
	}
	g.AddNode(Node{ID: "h1", Kind: HostNode})
	g.AddNode(Node{ID: "h2", Kind: HostNode})
	g.AddLink(Link{From: "sA", To: "sB", Capacity: 1e9})
	g.AddLink(Link{From: "sB", To: "sC", Capacity: 1e9})
	g.AddLink(Link{From: "h1", To: "sA", Capacity: 100e6})
	g.AddLink(Link{From: "h2", To: "sC", Capacity: 100e6})
	n := g.CollapseSwitchClouds("cloud")
	if n != 1 {
		t.Fatalf("collapsed %d clouds, want 1", n)
	}
	if len(g.Nodes()) != 3 {
		t.Fatalf("nodes after collapse = %d, want 3", len(g.Nodes()))
	}
	p, err := g.Path("h1", "h2")
	if err != nil || len(p) != 3 {
		t.Fatalf("path through cloud = %v (err %v)", p, err)
	}
	if g.Node(p[1]).Kind != VirtualNode {
		t.Fatalf("middle node kind = %v, want virtual", g.Node(p[1]).Kind)
	}
}

func TestCollapseSwitchCloudsLeavesLoneSwitch(t *testing.T) {
	g := sample(t)
	if n := g.CollapseSwitchClouds("v"); n != 0 {
		t.Fatalf("lone switches collapsed into %d clouds", n)
	}
	if g.Node("s1") == nil {
		t.Fatal("lone switch disappeared")
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := sample(t)
	var buf bytes.Buffer
	if err := g.EncodeText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, got)
}

func TestXMLRoundTrip(t *testing.T) {
	g := sample(t)
	var buf bytes.Buffer
	if err := g.EncodeXML(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<topology>") {
		t.Fatalf("XML output looks wrong: %s", buf.String()[:60])
	}
	got, err := DecodeXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, got)
}

func assertGraphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	an, bn := a.Nodes(), b.Nodes()
	if len(an) != len(bn) {
		t.Fatalf("node counts %d vs %d", len(an), len(bn))
	}
	for i := range an {
		if *an[i] != *bn[i] {
			t.Fatalf("node %d: %+v vs %+v", i, an[i], bn[i])
		}
	}
	if len(a.Links()) != len(b.Links()) {
		t.Fatalf("link counts %d vs %d", len(a.Links()), len(b.Links()))
	}
	for i := range a.Links() {
		if *a.Links()[i] != *b.Links()[i] {
			t.Fatalf("link %d: %+v vs %+v", i, a.Links()[i], b.Links()[i])
		}
	}
}

func TestDecodeTextRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"GRAPH x y\n",
		"GRAPH 1 0\nNODE only-three-fields host\nEND\n",
		"GRAPH 0 1\nLINK a b 1 0 0 0\nEND\n", // link before nodes exist
		"GRAPH 0 0\n",                        // missing END
		"GRAPH 1 0\nNODE a alien -\nEND\n",   // bad kind
	}
	for i, c := range cases {
		if _, err := DecodeText(strings.NewReader(c)); err == nil {
			t.Errorf("case %d decoded garbage", i)
		}
	}
}

func TestEncodeTextRejectsSpaceID(t *testing.T) {
	g := NewGraph()
	g.AddNode(Node{ID: "bad id", Kind: HostNode})
	var buf bytes.Buffer
	if err := g.EncodeText(&buf); err == nil {
		t.Fatal("whitespace ID encoded")
	}
}

// Property: text and XML round trips preserve random graphs.
func TestPropertyEncodingsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		nn := 2 + rng.Intn(10)
		ids := make([]string, nn)
		for i := range ids {
			ids[i] = string(rune('a'+i)) + "n"
			g.AddNode(Node{ID: ids[i], Kind: NodeKind(rng.Intn(4)), Addr: ""})
		}
		for i := 0; i < nn; i++ {
			a, b := ids[rng.Intn(nn)], ids[rng.Intn(nn)]
			g.AddLink(Link{From: a, To: b,
				Capacity:   float64(rng.Intn(1e9)),
				UtilFromTo: float64(rng.Intn(1e6)),
				UtilToFrom: float64(rng.Intn(1e6)),
				Latency:    time.Duration(rng.Intn(1e9)),
			})
		}
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
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func graphsEqual(a, b *Graph) bool {
	an, bn := a.Nodes(), b.Nodes()
	if len(an) != len(bn) || len(a.Links()) != len(b.Links()) {
		return false
	}
	for i := range an {
		if *an[i] != *bn[i] {
			return false
		}
	}
	for i := range a.Links() {
		if *a.Links()[i] != *b.Links()[i] {
			return false
		}
	}
	return true
}

func BenchmarkFlowAlloc(b *testing.B) {
	g := sample(b)
	reqs := []FlowRequest{{Src: "h1", Dst: "h2"}, {Src: "h3", Dst: "h2"}, {Src: "h2", Dst: "h1"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.FlowAlloc(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDecodeText(b *testing.B) {
	g := sample(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := g.EncodeText(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeText(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// NodeByAddr answers from an index; everything that binds, rebinds or
// drops a node must keep it in step.
func TestNodeByAddrIndexFollowsMutations(t *testing.T) {
	g := NewGraph()
	g.AddNode(Node{ID: "a", Kind: HostNode, Addr: "10.0.0.1"})
	g.AddNode(Node{ID: "sw", Kind: SwitchNode})
	g.AddNode(Node{ID: "b", Kind: HostNode, Addr: "10.0.0.2"})
	g.AddLink(Link{From: "a", To: "sw", Capacity: 1})
	g.AddLink(Link{From: "sw", To: "b", Capacity: 1})
	check := func(g *Graph, addr, wantID string) {
		t.Helper()
		got := ""
		if n := g.NodeByAddr(addr); n != nil {
			got = n.ID
		}
		if got != wantID {
			t.Fatalf("NodeByAddr(%q) = %q, want %q", addr, got, wantID)
		}
	}
	check(g, "10.0.0.1", "a")
	check(g, "", "")
	check(g, "10.9.9.9", "")

	// Re-adding an ID under a new address forgets the old one.
	g.AddNode(Node{ID: "a", Kind: HostNode, Addr: "10.0.0.9"})
	check(g, "10.0.0.1", "")
	check(g, "10.0.0.9", "a")

	// A clone answers as its original, and rebinding an address on it
	// leaves the original's index as it was.
	c := g.Clone()
	check(c, "10.0.0.2", "b")
	rebind := NewGraph()
	rebind.AddNode(Node{ID: "b", Kind: HostNode, Addr: "10.0.0.7"})
	c.Update(rebind)
	check(c, "10.0.0.7", "b")
	check(c, "10.0.0.2", "")
	check(g, "10.0.0.2", "b")
	check(g, "10.0.0.7", "")

	// Merge fills an empty address; Update rewrites one. Neither reaches
	// a clone taken before.
	before := g.Clone()
	other := NewGraph()
	other.AddNode(Node{ID: "sw", Kind: SwitchNode, Addr: "10.0.0.250"})
	other.AddNode(Node{ID: "b", Kind: HostNode, Addr: "10.0.0.3"})
	g.Merge(other)
	check(g, "10.0.0.250", "sw")
	check(g, "10.0.0.2", "b") // Merge keeps an address already set
	g.Update(other)
	check(g, "10.0.0.3", "b")
	check(g, "10.0.0.2", "")
	check(before, "10.0.0.2", "b")
	check(before, "10.0.0.3", "")
	check(before, "10.0.0.250", "")

	// Pruning copies nodes, collapsing drops them: addresses follow.
	p, err := g.Prune([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	check(p, "10.0.0.9", "a")
	check(p, "10.0.0.250", "sw")
	p.CollapseChains(map[string]bool{"a": true, "b": true})
	if p.Node("sw") != nil {
		t.Fatal("chain collapse kept the interior switch")
	}
	check(p, "10.0.0.250", "")
	check(p, "10.0.0.3", "b")
}

// TestUpdateRehomesAMovedHost: a poll that shows a host on a new link
// drops the host's old link from the graph it updates — the host moves,
// and moves back — while a poll that moves measurements only leaves the
// structure shared, and the first poll into an empty graph drops nothing.
func TestUpdateRehomesAMovedHost(t *testing.T) {
	// lan is h and h1 on sw1, sw1 and sw2 on r; at names h's switch.
	lan := func(at string) *Graph {
		g := NewGraph()
		for _, n := range []Node{
			{ID: "h", Kind: HostNode, Addr: "10.0.0.1"},
			{ID: "h1", Kind: HostNode, Addr: "10.0.0.2"},
			{ID: "sw1", Kind: SwitchNode}, {ID: "sw2", Kind: SwitchNode},
			{ID: "r", Kind: RouterNode},
		} {
			g.AddNode(n)
		}
		for _, l := range []Link{
			{From: "sw1", To: "r", Capacity: 1e9},
			{From: "sw2", To: "r", Capacity: 1e9},
			{From: "h1", To: "sw1", Capacity: 100e6},
			{From: "h", To: at, Capacity: 10e6},
		} {
			if _, err := g.AddLink(l); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	attached := func(g *Graph) []string {
		var out []string
		for _, sw := range []string{"sw1", "sw2"} {
			if g.FindLink("h", sw) != nil {
				out = append(out, sw)
			}
		}
		return out
	}

	g := NewGraph()
	g.Update(lan("sw1"))
	if got := len(g.Links()); got != 4 {
		t.Fatalf("the first Update into an empty graph kept %d of 4 links", got)
	}

	next := g.Clone()
	poll := lan("sw1")
	poll.FindLink("h1", "sw1").UtilFromTo = 30e6
	next.Update(poll)
	if !next.sharesStructure(g) {
		t.Fatal("a measurement-only Update took a private structure")
	}
	if got := next.FindLink("h1", "sw1").UtilFromTo; got != 30e6 {
		t.Fatalf("the measurement-only Update read %g, want 30e6", got)
	}

	for _, to := range []string{"sw2", "sw1"} {
		before := g.Clone()
		g.Update(lan(to))
		if got := attached(g); !reflect.DeepEqual(got, []string{to}) {
			t.Fatalf("after h moved to %s it is attached to %v", to, got)
		}
		if got := len(g.Links()); got != 4 {
			t.Fatalf("after h moved to %s the graph holds %d links, want 4", to, got)
		}
		path, err := g.Path("h1", "h")
		if want := map[string]int{"sw1": 3, "sw2": 5}[to]; err != nil || len(path) != want {
			t.Fatalf("after h moved to %s, h1->h routes %v (%v), want %d nodes", to, path, err, want)
		}
		if got := attached(before); len(got) != 1 || got[0] == to {
			t.Fatalf("the move reached a clone taken before it: %v", got)
		}
	}
}
