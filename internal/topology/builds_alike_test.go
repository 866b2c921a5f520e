package topology_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"remos/internal/collector"
	"remos/internal/experiments"
	"remos/internal/netsim"
	"remos/internal/sim"
	"remos/internal/topology"
)

// TestGraphBuildsAnswerAlike is the cross-path gate on a graph's lookups,
// which read the node table a graph builds when first read and the routing
// shape: one set of node and link slabs is built five ways — AddNode and
// AddLink in slab order, Assemble of the slabs, DecodeText of the first
// way's EncodeText, DecodeXML of its EncodeXML, and Merge of it into an
// empty graph — each also cloned before anything reads it, and every
// lookup must answer alike on all ten, whichever lookup comes first on a
// fresh graph. Every FindLink answer must be the first link of its pair in
// Links(). The slabs are netsim.RandomFabric draws (seeds through
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
// slabs, and holds the builds of each variant of them to each other.
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

// slabVariants are the slabs as given and with each thing a lookup
// resolves by a rule: which of two nodes an ID names (AddNode's: the
// later), which of two an address does (NodeByAddr's), and which of two
// links a pair does (FindLink's: the first).
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
		// The twin's ID sorts just after a random node's, so before the
		// carrier's about half the time.
		carrier := nodes[rng.Intn(len(nodes))]
		twin := topology.Node{Kind: topology.SwitchNode, Addr: carrier.Addr}
		for taken := true; taken; {
			twin.ID = nodes[rng.Intn(len(nodes))].ID + fmt.Sprintf("-%d", rng.Intn(100))
			taken = slices.ContainsFunc(nodes, func(n topology.Node) bool { return n.ID == twin.ID })
		}
		nodes = append(nodes, twin)
		return nodes, append(links, topology.Link{From: carrier.ID, To: twin.ID, Capacity: 1e8})
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

// checkBuildsAlike builds the slabs every way and asks each build every
// lookup, once per lookup kind: on fresh graphs, that kind's lookups come
// first and the rest follow, each part in an order of rng's. A node ID
// the slab repeats, AddNode resolves by replacing the earlier node;
// Assemble, whose nodes must be distinct, is given the slab as AddNode
// resolves it, and both decoders must refuse the text with the earlier
// node's line put back. Merge folds parallel links, so it is a way only
// for slabs without them.
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
	base := added()
	var distinct []topology.Node
	for i, n := range nodes {
		if slices.ContainsFunc(nodes[i+1:], func(m topology.Node) bool { return m.ID == n.ID }) {
			assertDecodersRefuse(t, what, base, n)
			continue
		}
		distinct = append(distinct, n)
	}
	var text, xmlText bytes.Buffer
	if err := base.EncodeText(&text); err != nil {
		t.Fatal(err)
	}
	if err := base.EncodeXML(&xmlText); err != nil {
		t.Fatal(err)
	}
	type way struct {
		name  string
		build func() *topology.Graph
	}
	ways := []way{
		{"AddNode/AddLink", added},
		{"Assemble", func() *topology.Graph { return topology.Assemble(slices.Clone(distinct), slices.Clone(links)) }},
		{"DecodeText", func() *topology.Graph {
			g, err := topology.DecodeText(bytes.NewReader(text.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"DecodeXML", func() *topology.Graph {
			g, err := topology.DecodeXML(bytes.NewReader(xmlText.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	}
	if !base.HasParallelLinks() {
		ways = append(ways, way{"Merge", func() *topology.Graph {
			g := topology.NewGraph()
			g.Merge(added())
			return g
		}})
	}
	for _, w := range ways {
		ways = append(ways, way{w.name + ", cloned", func() *topology.Graph { return w.build().Clone() }})
	}
	asks := lookups(t, rng, nodes, links)
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

// assertDecodersRefuse puts n's node line back into g's text and its XML,
// where g holds a later node of n's ID, and holds both decoders to
// refusing the result.
func assertDecodersRefuse(t *testing.T, what string, g *topology.Graph, n topology.Node) {
	t.Helper()
	var text, xmlText bytes.Buffer
	if err := g.EncodeText(&text); err != nil {
		t.Fatal(err)
	}
	if err := g.EncodeXML(&xmlText); err != nil {
		t.Fatal(err)
	}
	addr := n.Addr
	if addr == "" {
		addr = "-"
	}
	_, rest, _ := strings.Cut(text.String(), "\n")
	repeated := fmt.Sprintf("GRAPH %d %d\nNODE %s %s %s\n%s", len(g.Nodes())+1, len(g.Links()), n.ID, n.Kind, addr, rest)
	if _, err := topology.DecodeText(strings.NewReader(repeated)); err == nil {
		t.Fatalf("%s: DecodeText took a second node %s", what, n.ID)
	}
	node := fmt.Sprintf(`<topology><node id=%q kind=%q addr=%q></node>`, n.ID, n.Kind, n.Addr)
	if _, err := topology.DecodeXML(strings.NewReader(strings.Replace(xmlText.String(), "<topology>", node, 1))); err == nil {
		t.Fatalf("%s: DecodeXML took a second node %s", what, n.ID)
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
// pairs, each answer held to a scan of Links(), HasParallelLinks, Nodes,
// and Path and FlowAlloc for sampled pairs.
func lookups(t *testing.T, rng *rand.Rand, nodes []topology.Node, links []topology.Link) []lookup {
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
			ab, ba := g.FindLink(p[0], p[1]), g.FindLink(p[1], p[0])
			if first := firstLink(g, p[0], p[1]); ab != first || ba != first {
				t.Fatalf("FindLink(%s, %s) = %s and FindLink(%s, %s) = %s; the first link of the pair is %s",
					p[0], p[1], linkText(ab), p[1], p[0], linkText(ba), linkText(first))
			}
			return linkText(ab) + " " + linkText(ba)
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

// firstLink is the first of g's links joining a and b, by a scan.
func firstLink(g *topology.Graph, a, b string) *topology.Link {
	for _, l := range g.Links() {
		if l.From == a && l.To == b || l.From == b && l.To == a {
			return l
		}
	}
	return nil
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
