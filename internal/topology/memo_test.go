package topology

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// assertRoutesLikeClone holds g, whose shape memo may be warm, to a Clone
// whose carried memo is dropped: every node pair must route alike.
func assertRoutesLikeClone(t *testing.T, after string, g *Graph) {
	t.Helper()
	fresh := g.Clone()
	if fresh.shape.Load() != g.shape.Load() {
		t.Fatal("a Clone does not carry its original's memoized shape")
	}
	fresh.invalidate()
	nodes := g.Nodes()
	for _, a := range nodes {
		for _, b := range nodes {
			got, gotErr := g.Path(a.ID, b.ID)
			want, wantErr := fresh.Path(a.ID, b.ID)
			if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("after %s: Path(%s, %s) = %v, %v; a fresh clone says %v, %v",
					after, a.ID, b.ID, got, gotErr, want, wantErr)
			}
		}
	}
}

// Every exported mutator must drop the shape memo: route (which fills
// it), mutate, and route again against a clone whose memo is rebuilt.
func TestShapeMemoFollowsEveryMutator(t *testing.T) {
	mutators := []struct {
		name string
		do   func(t *testing.T, g *Graph, rng *rand.Rand)
	}{
		{"AddNode (new)", func(t *testing.T, g *Graph, _ *rand.Rand) {
			g.AddNode(Node{ID: "zz-new", Kind: HostNode})
		}},
		{"AddNode (replace)", func(t *testing.T, g *Graph, _ *rand.Rand) {
			n := g.Nodes()[0]
			g.AddNode(Node{ID: n.ID, Kind: RouterNode, Addr: "192.0.2.1"})
		}},
		{"AddLink (shortcut)", func(t *testing.T, g *Graph, rng *rand.Rand) {
			nodes := g.Nodes()
			a, b := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
			if _, err := g.AddLink(Link{From: a.ID, To: b.ID, Capacity: 1e9}); err != nil {
				t.Fatal(err)
			}
		}},
		{"Merge", func(t *testing.T, g *Graph, rng *rand.Rand) {
			other, _ := randomTree(rng) // shares IDs n0.., h0.. with g: new links between old nodes
			other.AddNode(Node{ID: "zz-merged", Kind: SwitchNode})
			other.AddLink(Link{From: "zz-merged", To: "n0", Capacity: 1e9})
			other.AddLink(Link{From: "zz-merged", To: "h0", Capacity: 1e9})
			g.Merge(other)
		}},
		{"Update", func(t *testing.T, g *Graph, rng *rand.Rand) {
			other, _ := randomTree(rng)
			other.AddNode(Node{ID: "zz-updated", Kind: SwitchNode})
			other.AddLink(Link{From: "zz-updated", To: "n1", Capacity: 1e9})
			other.AddLink(Link{From: "zz-updated", To: "h1", Capacity: 1e9})
			g.Update(other)
		}},
		{"Prune", func(t *testing.T, g *Graph, _ *rand.Rand) {
			// Prune leaves g alone and returns a graph of its own; both
			// must route like their clones.
			pruned, err := g.Prune([]string{"h0", "h1"})
			if err != nil {
				t.Fatal(err)
			}
			assertRoutesLikeClone(t, "Prune (the pruned graph)", pruned)
		}},
		{"CollapseSwitchClouds", func(t *testing.T, g *Graph, _ *rand.Rand) {
			g.CollapseSwitchClouds("cloud")
		}},
		{"CollapseChains", func(t *testing.T, g *Graph, _ *rand.Rand) {
			g.CollapseChains(map[string]bool{"h0": true, "h1": true})
		}},
	}
	for _, m := range mutators {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g, hosts := randomMeshed(rng)
			if _, err := g.Path(hosts[0], hosts[1]); err != nil {
				t.Fatal(err)
			}
			if g.shape.Load() == nil {
				t.Fatal("Path left no memoized shape")
			}
			m.do(t, g, rng)
			assertRoutesLikeClone(t, m.name, g)
		}
	}
}

// A second routing request on an unchanged graph reads the shape the
// first one built; so do FlowAlloc, Prune and a Clone.
func TestShapeBuiltOncePerChange(t *testing.T) {
	g := sample(t)
	if _, err := g.Path("h1", "h2"); err != nil {
		t.Fatal(err)
	}
	built := g.shape.Load()
	if built == nil {
		t.Fatal("Path left no memoized shape")
	}
	if _, err := g.Path("h3", "h2"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.FlowAlloc([]FlowRequest{{Src: "h1", Dst: "h2"}, {Src: "h2", Dst: "h3"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Prune([]string{"h1", "h2", "h3"}); err != nil {
		t.Fatal(err)
	}
	if g.shape.Load() != built {
		t.Fatal("a routing request on an unchanged graph rebuilt the shape")
	}
	if c := g.Clone(); c.shape.Load() != built {
		t.Fatal("a Clone does not carry the memoized shape")
	}
	// Measurements move through the link pointers without touching the
	// structure: the memo stays, and the answers follow the new numbers.
	g.FindLink("r1", "r2").UtilFromTo = 9e6
	bw, _, err := loneFlow(g, "h1", "h2")
	if err != nil || bw != 1e6 {
		t.Fatalf("a lone flow after a re-measurement = %v, %v; want 1e6", bw, err)
	}
	if g.shape.Load() != built {
		t.Fatal("re-measuring a link dropped the shape")
	}
	g.AddNode(Node{ID: "h4", Kind: HostNode})
	if g.shape.Load() != nil {
		t.Fatal("AddNode kept the memoized shape")
	}
}

// Readers beside readers: a graph nobody mutates may be routed over from
// many goroutines at once, the first of which build the memo under the
// others' feet (meaningful under -race).
func TestConcurrentReadersShareShape(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, hosts := randomMeshed(rng)
	ref := g.Clone()
	type pair struct{ a, b string }
	var pairs []pair
	want := map[pair][]string{}
	for _, a := range hosts {
		for _, b := range hosts {
			p, err := ref.Path(a, b)
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, pair{a, b})
			want[pair{a, b}] = p
		}
	}
	for round := 0; round < 20; round++ {
		g.invalidate() // every round starts cold: the readers race to build
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					p := pairs[(w*17+i)%len(pairs)]
					var got []string
					var err error
					if i%2 == 0 {
						got, err = g.Path(p.a, p.b)
					} else {
						_, got, err = loneFlow(g, p.a, p.b)
					}
					if err == nil && !reflect.DeepEqual(got, want[p]) {
						err = fmt.Errorf("%s -> %s: path %v, want %v", p.a, p.b, got, want[p])
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// coldReply is a graph of the shape a cold 32-host campus query returns:
// the hosts, the access and aggregation switches between them and their
// four gateways, the core joining those.
func coldReply() *Graph {
	g := NewGraph()
	link := func(from, to string, capacity float64) {
		g.AddLink(Link{From: from, To: to, Capacity: capacity, UtilFromTo: 1234567.5, UtilToFrom: 0.25, Latency: time.Millisecond})
	}
	g.AddNode(Node{ID: "10.0.0.1", Kind: SwitchNode, Addr: "10.0.0.1"}) // core
	for w := 0; w < 4; w++ {
		gw, agg := fmt.Sprintf("gw%d", w), fmt.Sprintf("10.0.%d.2", w+1)
		g.AddNode(Node{ID: gw, Kind: RouterNode, Addr: fmt.Sprintf("10.0.%d.1", w+1)})
		g.AddNode(Node{ID: agg, Kind: SwitchNode, Addr: agg})
		link(gw, "10.0.0.1", 1e9)
		link(agg, gw, 1e9)
		for e := 0; e < 6; e++ {
			edge := fmt.Sprintf("10.0.%d.%d", w+1, 10+e)
			g.AddNode(Node{ID: edge, Kind: SwitchNode, Addr: edge})
			link(edge, agg, 1e9)
		}
		for h := 0; h < 8; h++ {
			host := fmt.Sprintf("10.%d.0.%d", w+1, 2+h)
			g.AddNode(Node{ID: host, Kind: HostNode, Addr: host})
			link(host, fmt.Sprintf("10.0.%d.%d", w+1, 10+h%6), 100e6)
		}
	}
	return g
}

// Routing on a bare graph builds only the shape: no address tables and no
// tree memo, which only an index reads. NewPathIndex builds a shape of
// its own — a warm memo does not make its trees warm — and leaves the
// graph's memo as it was; over a graph with none, its shape becomes the
// memo, and NewPathIndexFrom reads it.
func TestIndexShapeBesideGraphMemo(t *testing.T) {
	g := sample(t)
	if _, err := g.Prune([]string{"h1", "h2"}); err != nil {
		t.Fatal(err)
	}
	memo := g.shape.Load()
	if memo == nil || memo.addr4 != nil || memo.memo.Load() != nil {
		t.Fatal("graph routing left no shape, or built what only an index reads")
	}
	px := NewPathIndex(g)
	if px.shape == memo || g.shape.Load() != memo {
		t.Fatal("NewPathIndex did not build a fresh shape beside the graph's memo")
	}
	if px.shape.addr4 == nil || memo.addr4 != nil {
		t.Fatal("NewPathIndex built no address tables, or built them on the memo")
	}
	if nx := NewPathIndexFrom(px, g); nx.shape != memo || memo.addr4 == nil {
		t.Fatal("NewPathIndexFrom did not read the graph's memo, address tables built")
	}

	bare := sample(t)
	bx := NewPathIndex(bare)
	if bare.shape.Load() != bx.shape {
		t.Fatal("NewPathIndex over a graph with no memo did not store its shape")
	}
	if c := bare.Clone(); NewPathIndexFrom(nil, c).shape != bx.shape {
		t.Fatal("an index over a clone did not read the shape the clone carries")
	}
}
