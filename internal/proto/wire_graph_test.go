package proto

import (
	"bytes"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"remos/internal/collector"
	"remos/internal/netsim"
	"remos/internal/rerr"
	"remos/internal/sim"
	"remos/internal/topology"
)

// servedGraph answers every QUERY with the graph it holds, so a test can
// put each draw's graph behind one pair of servers.
type servedGraph struct {
	g atomic.Pointer[topology.Graph]
}

func (*servedGraph) Name() string { return "served-graph" }

func (s *servedGraph) Collect(collector.Query) (*collector.Result, error) {
	return &collector.Result{Graph: s.g.Load()}, nil
}

// TestWireGraphMatchesSource is the cross-path gate on the graph a remote
// QUERY hands its client: over random netsim fabrics, the graph the ASCII
// client decodes in place and the one the XML/HTTP client decodes are
// the served graph, in everything a Modeler reads of it — the text, every
// node and the address it binds, the links in order bit for bit, the
// first link of each pair, and max-min over every ordered host pair,
// with a pair that has no route failing in the same class. One draw
// carries a link parallel to another, which the decoders must keep in
// order behind the first.
func TestWireGraphMatchesSource(t *testing.T) {
	src := &servedGraph{}
	tcp := &TCPServer{Collector: src}
	taddr, err := tcp.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	web := &HTTPServer{Collector: src}
	haddr, err := web.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer web.Close()
	clients := []collector.Interface{&TCPClient{Addr: taddr}, &HTTPClient{BaseURL: "http://" + haddr}}
	defer clients[0].(*TCPClient).Close()

	draws := 0
	f := func(seed int64) bool {
		fab := netsim.RandomFabric(sim.NewSim(), seed)
		g, err := netsim.TopologyGraph(fab.Net)
		if err != nil {
			t.Fatal(err)
		}
		// Readings with every digit a float64 carries, so the decoders'
		// numbers are held bit for bit.
		rng := rand.New(rand.NewSource(seed))
		for _, l := range g.Links() {
			l.UtilFromTo = rng.Float64() * l.Capacity
			l.UtilToFrom = rng.Float64() * l.Capacity / 3
		}
		if draws == 0 {
			l := g.Links()[rng.Intn(len(g.Links()))]
			if _, err := g.AddLink(topology.Link{From: l.To, To: l.From, Capacity: l.Capacity / 2, UtilFromTo: 1, Latency: time.Microsecond}); err != nil {
				t.Fatal(err)
			}
		}
		draws++
		src.g.Store(g)
		hosts := make([]netip.Addr, len(fab.Hosts))
		for i, h := range fab.Hosts {
			hosts[i] = h.ManagementAddr()
		}
		for _, cl := range clients {
			res, err := cl.Collect(collector.Query{Hosts: hosts[:2]})
			if err != nil {
				t.Fatalf("%s: %s: %v", fab.Shape, cl.Name(), err)
			}
			checkGraphMatches(t, fab.Shape+" via "+cl.Name(), res.Graph, g, hosts)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCountScale: 0.2}); err != nil {
		t.Fatal(err)
	}
}

// checkGraphMatches holds got, a graph read off the wire, to want, the
// graph served.
func checkGraphMatches(t *testing.T, what string, got, want *topology.Graph, hosts []netip.Addr) {
	t.Helper()
	var gt, wt bytes.Buffer
	if err := got.EncodeText(&gt); err != nil {
		t.Fatal(err)
	}
	if err := want.EncodeText(&wt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gt.Bytes(), wt.Bytes()) {
		t.Fatalf("%s: the graph encodes as\n%s\nthe source as\n%s", what, gt.Bytes(), wt.Bytes())
	}
	for _, n := range want.Nodes() {
		m := got.Node(n.ID)
		if m == nil || *m != *n {
			t.Fatalf("%s: node %+v came back as %+v", what, n, m)
		}
		if b, a := want.NodeByAddr(n.Addr), got.NodeByAddr(n.Addr); (a == nil) != (b == nil) || (a != nil && *a != *b) {
			t.Fatalf("%s: NodeByAddr(%q) = %+v, source %+v", what, n.Addr, a, b)
		}
	}
	gl, wl := got.Links(), want.Links()
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d links, source %d", what, len(gl), len(wl))
	}
	for i, w := range wl {
		if !sameLinkBits(gl[i], w) {
			t.Fatalf("%s: link %d is %+v, source %+v", what, i, *gl[i], *w)
		}
		if a, b := got.FindLink(w.To, w.From), want.FindLink(w.To, w.From); a == nil || !sameLinkBits(a, b) {
			t.Fatalf("%s: FindLink(%s, %s) = %+v, source %+v", what, w.To, w.From, a, b)
		}
	}
	if got.HasParallelLinks() != want.HasParallelLinks() {
		t.Fatalf("%s: HasParallelLinks = %t, source %t", what, got.HasParallelLinks(), want.HasParallelLinks())
	}
	gx, wx := topology.NewPathIndex(got), topology.NewPathIndex(want)
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			req := []topology.FlowRequest{{Src: a.String(), Dst: b.String()}}
			ga, gerr := gx.FlowAlloc(req)
			wa, werr := wx.FlowAlloc(req)
			if (gerr == nil) != (werr == nil) || rerr.Code(gerr) != rerr.Code(werr) || !reflect.DeepEqual(ga, wa) {
				t.Fatalf("%s: %v -> %v: %+v, %v; source %+v, %v", what, a, b, ga, gerr, wa, werr)
			}
		}
	}
}

// sameLinkBits compares two links field by field, the readings by their
// bits.
func sameLinkBits(a, b *topology.Link) bool {
	return a.From == b.From && a.To == b.To &&
		math.Float64bits(a.Capacity) == math.Float64bits(b.Capacity) &&
		math.Float64bits(a.UtilFromTo) == math.Float64bits(b.UtilFromTo) &&
		math.Float64bits(a.UtilToFrom) == math.Float64bits(b.UtilToFrom) &&
		a.Latency == b.Latency && a.Jitter == b.Jitter
}
