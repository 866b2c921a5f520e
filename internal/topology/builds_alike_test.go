package topology_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"

	"remos/internal/collector"
	"remos/internal/experiments"
	"remos/internal/netsim"
	"remos/internal/sim"
	"remos/internal/topology"
)

// TestGraphBuildsAnswerAlike is the cross-path gate on a graph's lookup
// tables, which a graph builds when first read: one set of node and link
// slabs is built three ways — AddNode and AddLink in slab order, Assemble
// of the slabs, and DecodeText of the first way's EncodeText — and every
// lookup must answer alike on all three, whichever lookup comes first on
// a fresh graph. The slabs are netsim.RandomFabric draws (seeds through
// testing/quick on a fixed list, so -quickchecks scales them: make
// property-soak) and a collected cold campus reply, each as drawn and
// with a repeated node ID, two nodes carrying one address, and an
// appended parallel link.
func TestGraphBuildsAnswerAlike(t *testing.T) {
	camp, err := experiments.BuildCampus(256)
	if err != nil {
		t.Fatal(err)
	}
	defer camp.Dep.Stop()
	rng := rand.New(rand.NewSource(1))
	var hosts []netip.Addr
	for _, k := range rng.Perm(len(camp.Hosts))[:32] {
		hosts = append(hosts, camp.Hosts[k].Addr())
	}
	res, err := camp.Site.SNMP.Collect(collector.Query{Hosts: hosts})
	if err != nil {
		t.Fatal(err)
	}
	checkVariantsAlike(t, "campus cold reply", rng, res.Graph)

	draws := 0
	f := func(seed int64) bool {
		fab := netsim.RandomFabric(sim.NewSim(), seed)
		g, err := netsim.TopologyGraph(fab.Net)
		if err != nil {
			t.Fatal(err)
		}
		draws++
		checkVariantsAlike(t, fab.Shape, rand.New(rand.NewSource(seed)), g)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCountScale: 0.2}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d fabrics drawn", draws)
}

// checkVariantsAlike takes g's nodes, in an order of rng's, and links as
// slabs, and holds the three builds of each variant of them to each other.
func checkVariantsAlike(t *testing.T, what string, rng *rand.Rand, g *topology.Graph) {
	t.Helper()
	var nodes []topology.Node
	for _, n := range g.Nodes() {
		nodes = append(nodes, *n)
	}
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	var links []topology.Link
	for _, l := range g.Links() {
		links = append(links, *l)
	}
	for _, v := range slabVariants {
		n, l := v.vary(rng, slices.Clone(nodes), slices.Clone(links))
		checkBuildsAlike(t, what+", "+v.name, rng, n, l)
	}
}

// slabVariants are the slabs as given and with each thing a table
// resolves by a rule: which of two nodes an ID or an address names, and
// which of two links a pair does. The text carries nodes in ID order, so
// a node sharing an address is given an ID after every other: each build
// binds the address to the later node.
var slabVariants = []struct {
	name string
	vary func(rng *rand.Rand, nodes []topology.Node, links []topology.Link) ([]topology.Node, []topology.Link)
}{
	{"as given", func(_ *rand.Rand, nodes []topology.Node, links []topology.Link) ([]topology.Node, []topology.Link) {
		return nodes, links
	}},
	{"repeated node ID", func(rng *rand.Rand, nodes []topology.Node, links []topology.Link) ([]topology.Node, []topology.Link) {
		again := nodes[rng.Intn(len(nodes))]
		again.Kind, again.Addr = topology.VirtualNode, "192.0.2.77"
		return append(nodes, again), links
	}},
	{"shared address", func(rng *rand.Rand, nodes []topology.Node, links []topology.Link) ([]topology.Node, []topology.Link) {
		carrier := nodes[rng.Intn(len(nodes))]
		nodes = append(nodes, topology.Node{ID: "zz-twin", Kind: topology.SwitchNode, Addr: carrier.Addr})
		return nodes, append(links, topology.Link{From: carrier.ID, To: "zz-twin", Capacity: 1e8})
	}},
	{"parallel link", func(rng *rand.Rand, nodes []topology.Node, links []topology.Link) ([]topology.Node, []topology.Link) {
		l := links[rng.Intn(len(links))]
		l.From, l.To, l.Capacity = l.To, l.From, l.Capacity/2
		return nodes, append(links, l)
	}},
}

// lookup is one question a reader asks a graph, its answer as text.
type lookup struct {
	kind string
	ask  func(g *topology.Graph) string
}

// checkBuildsAlike builds the slabs three ways and asks each build every
// lookup, once per lookup kind: on fresh graphs, that kind's lookups come
// first and the rest follow, each part in an order of rng's.
func checkBuildsAlike(t *testing.T, what string, rng *rand.Rand, nodes []topology.Node, links []topology.Link) {
	t.Helper()
	added := func() *topology.Graph {
		g := topology.NewGraph()
		for _, n := range nodes {
			g.AddNode(n)
		}
		for _, l := range links {
			if _, err := g.AddLink(l); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	var text bytes.Buffer
	if err := added().EncodeText(&text); err != nil {
		t.Fatal(err)
	}
	ways := []struct {
		name  string
		build func() *topology.Graph
	}{
		{"AddNode/AddLink", added},
		{"Assemble", func() *topology.Graph { return topology.Assemble(slices.Clone(nodes), slices.Clone(links)) }},
		{"DecodeText", func() *topology.Graph {
			g, err := topology.DecodeText(bytes.NewReader(text.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	}
	asks := lookups(rng, nodes, links)
	kinds := []string{"Node", "NodeByAddr", "FindLink", "HasParallelLinks", "Nodes", "Path", "FlowAlloc"}
	var want []string
	for _, first := range kinds {
		order := rng.Perm(len(asks))
		slices.SortStableFunc(order, func(a, b int) int {
			return boolInt(asks[b].kind == first) - boolInt(asks[a].kind == first)
		})
		for _, way := range ways {
			g := way.build()
			got := make([]string, len(asks))
			for _, i := range order {
				got[i] = asks[i].ask(g)
			}
			if want == nil {
				want = got
				continue
			}
			for i := range asks {
				if got[i] != want[i] {
					t.Fatalf("%s: built by %s, %s first: %s answers\n%s\nbuilt by %s: %s",
						what, way.name, first, asks[i].kind, got[i], ways[0].name, want[i])
				}
			}
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// lookups lists what the gate asks of a graph built from the slabs: Node
// for every ID and a missing one, NodeByAddr for every address and a
// missing one, FindLink both ways for every linked pair and for sampled
// pairs, HasParallelLinks, Nodes, and Path and FlowAlloc for sampled
// pairs.
func lookups(rng *rand.Rand, nodes []topology.Node, links []topology.Link) []lookup {
	ids := []string{"no-such-node"}
	addrs := []string{"203.0.113.9"}
	for _, n := range nodes {
		ids = append(ids, n.ID)
		if n.Addr != "" {
			addrs = append(addrs, n.Addr)
		}
	}
	var out []lookup
	for _, id := range ids {
		out = append(out, lookup{"Node", func(g *topology.Graph) string { return nodeText(g.Node(id)) }})
	}
	for _, a := range addrs {
		out = append(out, lookup{"NodeByAddr", func(g *topology.Graph) string { return nodeText(g.NodeByAddr(a)) }})
	}
	pairs := make([][2]string, 0, len(links)+16)
	for _, l := range links {
		pairs = append(pairs, [2]string{l.From, l.To})
	}
	sampled := func() [2]string { return [2]string{ids[1+rng.Intn(len(ids)-1)], ids[1+rng.Intn(len(ids)-1)]} }
	for range 16 {
		pairs = append(pairs, sampled())
	}
	for _, p := range pairs {
		out = append(out, lookup{"FindLink", func(g *topology.Graph) string {
			return linkText(g.FindLink(p[0], p[1])) + " " + linkText(g.FindLink(p[1], p[0]))
		}})
	}
	out = append(out,
		lookup{"HasParallelLinks", func(g *topology.Graph) string { return fmt.Sprint(g.HasParallelLinks()) }},
		lookup{"Nodes", func(g *topology.Graph) string {
			var b bytes.Buffer
			for _, n := range g.Nodes() {
				b.WriteString(nodeText(n) + "\n")
			}
			return b.String()
		}})
	for range 8 {
		p := sampled()
		out = append(out, lookup{"Path", func(g *topology.Graph) string {
			path, err := g.Path(p[0], p[1])
			return fmt.Sprint(path, err)
		}})
	}
	for range 4 {
		reqs := make([]topology.FlowRequest, 1+rng.Intn(3))
		for i := range reqs {
			p := sampled()
			reqs[i] = topology.FlowRequest{Src: p[0], Dst: p[1], Demand: float64(rng.Intn(3)) * 40e6}
		}
		out = append(out, lookup{"FlowAlloc", func(g *topology.Graph) string {
			preds, err := g.FlowAlloc(reqs)
			return fmt.Sprintf("%+v %v", preds, err)
		}})
	}
	return out
}

func nodeText(n *topology.Node) string {
	if n == nil {
		return "nil"
	}
	return fmt.Sprintf("%+v", *n)
}

func linkText(l *topology.Link) string {
	if l == nil {
		return "nil"
	}
	return fmt.Sprintf("%+v", *l)
}
