package topology_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"remos/internal/netsim"
	"remos/internal/sim"
	"remos/internal/topology"
)

// TestUpdateMatchesPairTableReference holds Update, which matches a poll's
// links through the shape its graph carries, to refUpdate, the same fold
// written over a pair table, on sequences of random polls of
// netsim.RandomFabric draws (seeds through testing/quick on a fixed list,
// so -quickchecks scales them: make property-soak). Each sequence's first
// poll is the whole fabric with one parallel link more, onto an empty
// graph or onto that poll itself, and it goes on as the snapshot store
// does: each generation a Clone of the last, updated, indexed after the
// last. The polls read a random part of the fabric with new readings, and may add
// nodes and links, add two links of one new pair, or move a host to
// another peer. Every generation must encode to the reference's bytes and
// route and allocate as an index built fresh over the reference.
func TestUpdateMatchesPairTableReference(t *testing.T) {
	kinds := map[string]int{}
	f := func(seed int64) bool {
		fab := netsim.RandomFabric(sim.NewSim(), seed)
		full, err := netsim.TopologyGraph(fab.Net)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		first := full.Clone()
		l := full.Links()[rng.Intn(len(full.Links()))]
		first.AddLink(topology.Link{From: l.To, To: l.From, Capacity: l.Capacity / 2, UtilFromTo: 1e6})

		got, want := topology.NewGraph(), topology.NewGraph()
		if rng.Intn(2) == 0 {
			// From a graph that keeps the parallel link, whose pair's
			// readings go to the first link of it.
			got, want = first, first
		}
		var px *topology.PathIndex
		poll := first
		for step := 0; ; step++ {
			next := got.Clone()
			next.Update(poll)
			want = refUpdate(want, poll)
			px = topology.NewPathIndexFrom(px, next)
			what := fmt.Sprintf("%s, poll %d", fab.Shape, step)
			assertUpdatedLike(t, what, rng, next, px, want)
			if t.Failed() || step == 6 {
				return !t.Failed()
			}
			got = next
			var kind string
			poll, kind = randomPoll(rng, got, step)
			kinds[kind]++
		}
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCountScale: 0.2}); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"readings", "grown", "grown in parallel", "moved"} {
		if kinds[kind] == 0 {
			t.Fatalf("no %s poll drawn: %v", kind, kinds)
		}
	}
	t.Logf("polls drawn: %v", kinds)
}

// assertUpdatedLike holds an updated generation and its index to the
// reference graph: the same text, and for sampled node pairs and flow
// sets the answers of an index built fresh over the reference.
func assertUpdatedLike(t *testing.T, what string, rng *rand.Rand, g *topology.Graph, px *topology.PathIndex, ref *topology.Graph) {
	t.Helper()
	var got, want bytes.Buffer
	if err := g.EncodeText(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.EncodeText(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("%s: Update gives\n%s\nthe pair-table reference\n%s", what, got.Bytes(), want.Bytes())
		return
	}
	rx := topology.NewPathIndex(ref)
	nodes := ref.Nodes()
	pick := func() string { return nodes[rng.Intn(len(nodes))].ID }
	for range 16 {
		a, b := pick(), pick()
		gotPath, gotErr := px.Path(a, b)
		wantPath, wantErr := rx.Path(a, b)
		if fmt.Sprint(gotPath, gotErr) != fmt.Sprint(wantPath, wantErr) {
			t.Errorf("%s: Path(%s, %s) = %v (%v), the reference's %v (%v)", what, a, b, gotPath, gotErr, wantPath, wantErr)
			return
		}
		reqs := []topology.FlowRequest{{Src: a, Dst: b}, {Src: pick(), Dst: pick(), Demand: 20e6}}
		gotPreds, gotErr := px.FlowAlloc(reqs)
		wantPreds, wantErr := rx.FlowAlloc(reqs)
		if fmt.Sprintf("%+v %v", gotPreds, gotErr) != fmt.Sprintf("%+v %v", wantPreds, wantErr) {
			t.Errorf("%s: FlowAlloc(%+v) = %+v (%v), the reference's %+v (%v)", what, reqs, gotPreds, gotErr, wantPreds, wantErr)
			return
		}
	}
}

// randomPoll draws a poll of a random part of the generation g, as a
// collector would return it: new readings on every link it reads,
// and on top, by step and rng, new nodes and links, two new links of one
// new pair, or one of g's hosts on a peer g does not link it to. It names
// the kind it drew.
func randomPoll(rng *rand.Rand, g *topology.Graph, step int) (*topology.Graph, string) {
	var nodes []topology.Node
	var links []topology.Link
	in := map[string]bool{}
	addNode := func(n topology.Node) {
		if !in[n.ID] {
			in[n.ID] = true
			nodes = append(nodes, n)
		}
	}
	reading := func(l topology.Link) topology.Link {
		l.UtilFromTo = float64(rng.Intn(40)) * 1e6
		l.UtilToFrom = float64(rng.Intn(40)) * 1e6
		l.Latency += time.Duration(rng.Intn(3)) * time.Microsecond
		return l
	}
	keep := 0.5 + rng.Float64()/2
	for _, l := range g.Links() {
		if rng.Float64() < keep {
			addNode(*g.Node(l.From))
			addNode(*g.Node(l.To))
			links = append(links, reading(*l))
		}
	}
	all := g.Nodes()
	anyNode := func() string { return all[rng.Intn(len(all))].ID }
	kind := []string{"readings", "grown", "grown in parallel", "moved"}[rng.Intn(4)]
	switch kind {
	case "grown", "grown in parallel":
		sw := fmt.Sprintf("sw-%d", step)
		addNode(topology.Node{ID: sw, Kind: topology.SwitchNode})
		at := anyNode()
		addNode(*g.Node(at))
		links = append(links, reading(topology.Link{From: at, To: sw, Capacity: 1e9}))
		for i := range 1 + rng.Intn(3) {
			h := fmt.Sprintf("192.0.%d.%d", 100+step, i+1)
			addNode(topology.Node{ID: h, Kind: topology.HostNode, Addr: h})
			links = append(links, reading(topology.Link{From: h, To: sw, Capacity: 100e6}))
			if kind == "grown in parallel" && i == 0 {
				// The same pair again, either way round: one link, the
				// later readings.
				l := reading(topology.Link{From: sw, To: h, Capacity: 1e9, Latency: time.Millisecond})
				if rng.Intn(2) == 0 {
					l.From, l.To = l.To, l.From
				}
				links = append(links, l)
			}
		}
	case "moved":
		var hosts []string
		for _, n := range all {
			if n.Kind == topology.HostNode {
				hosts = append(hosts, n.ID)
			}
		}
		h := hosts[rng.Intn(len(hosts))]
		to := anyNode()
		for to == h || g.FindLink(h, to) != nil {
			to = anyNode()
		}
		addNode(*g.Node(h))
		addNode(*g.Node(to))
		links = append(links, reading(topology.Link{From: h, To: to, Capacity: 100e6}))
	}
	if rng.Intn(2) == 0 {
		return topology.Assemble(nodes, links), kind
	}
	poll := topology.NewGraph()
	for _, n := range nodes {
		poll.AddNode(n)
	}
	for _, l := range links {
		if _, err := poll.AddLink(l); err != nil {
			panic(err)
		}
	}
	return poll, kind
}

// refUpdate is g.Update(other) as it was written over a table of each
// pair's first link, returned as a graph of its own: the nodes united
// first, other's attributes winning; then each of other's links looked up
// by its pair among g's links and those other added before it, and
// written over the one found with other's readings or added, a host on a
// link added having moved; and last every link at a moved host that
// other lacks dropped.
func refUpdate(g, other *topology.Graph) *topology.Graph {
	out := topology.NewGraph()
	for _, n := range g.Nodes() {
		out.AddNode(*n)
	}
	for _, n := range other.Nodes() {
		exist := out.Node(n.ID)
		switch {
		case exist == nil:
			out.AddNode(*n)
		case exist.Kind != n.Kind || n.Addr != "" && n.Addr != exist.Addr:
			rebound := *exist
			rebound.Kind = n.Kind
			if n.Addr != "" {
				rebound.Addr = n.Addr
			}
			out.AddNode(rebound)
		}
	}
	var links []topology.Link
	for _, l := range g.Links() {
		links = append(links, *l)
	}
	pairs := map[[2]string]int{}
	for i := len(links) - 1; i >= 0; i-- {
		pairs[pairOf(&links[i])] = i
	}
	rehome := len(links) > 0
	moved := map[string]bool{}
	for _, l := range other.Links() {
		if i, ok := pairs[pairOf(l)]; ok {
			exist := &links[i]
			a, b := l.UtilFromTo, l.UtilToFrom
			if exist.From != l.From {
				a, b = b, a
			}
			exist.UtilFromTo, exist.UtilToFrom = a, b
			exist.Capacity, exist.Latency, exist.Jitter = l.Capacity, l.Latency, l.Jitter
			continue
		}
		pairs[pairOf(l)] = len(links)
		links = append(links, *l)
		for _, id := range [2]string{l.From, l.To} {
			if rehome && other.Node(id).Kind == topology.HostNode {
				moved[id] = true
			}
		}
	}
	polled := map[[2]string]bool{}
	for _, l := range other.Links() {
		polled[pairOf(l)] = true
	}
	for _, l := range links {
		if (moved[l.From] || moved[l.To]) && !polled[pairOf(&l)] {
			continue
		}
		if _, err := out.AddLink(l); err != nil {
			panic(err)
		}
	}
	return out
}

func pairOf(l *topology.Link) [2]string {
	if l.From > l.To {
		return [2]string{l.To, l.From}
	}
	return [2]string{l.From, l.To}
}
