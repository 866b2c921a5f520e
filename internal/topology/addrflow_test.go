package topology

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"remos/internal/rerr"
)

// addressed is a random graph identified the ways deployed graphs are:
// hosts by canonical address text (IPv4, IPv6, 4-in-6, zoned), interior
// nodes by name, and the traps an address-keyed lookup could fall into.
type addressed struct {
	g     *Graph
	hosts []netip.Addr // on the main component
	// island holds hosts no link joins to the main component; unknown
	// holds addresses that must not resolve although the graph has a node
	// that seems to match: a router's Addr that is not its ID, an ID that
	// spells an address another way than String() does, an IPv4 host's
	// 4-in-6 twin, and one address the graph has never heard of.
	island, unknown []netip.Addr
}

func randomAddressed(rng *rand.Rand) *addressed {
	ad := &addressed{g: NewGraph()}
	g := ad.g
	link := func(from, to string) {
		g.AddLink(Link{
			From: from, To: to,
			Capacity:   float64(10+rng.Intn(90)) * 1e6,
			UtilFromTo: float64(rng.Intn(9)) * 1e6,
			UtilToFrom: float64(rng.Intn(9)) * 1e6,
			Latency:    time.Duration(rng.Intn(10)) * time.Millisecond,
			Jitter:     time.Duration(rng.Intn(3)) * time.Millisecond * time.Duration(rng.Intn(2)),
		})
	}
	interior := make([]string, 2+rng.Intn(6))
	for i := range interior {
		interior[i] = fmt.Sprintf("sw%d", i)
		g.AddNode(Node{ID: interior[i], Kind: SwitchNode})
		if i > 0 {
			link(interior[rng.Intn(i)], interior[i])
		}
	}
	for k := rng.Intn(3); k > 0; k-- { // chords: BFS gets ties to break
		if a, b := interior[rng.Intn(len(interior))], interior[rng.Intn(len(interior))]; a != b {
			link(a, b)
		}
	}
	anywhere := func() string { return interior[rng.Intn(len(interior))] }
	host := func(i int) netip.Addr {
		switch b := byte(i + 1); rng.Intn(4) {
		case 0:
			return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: b})
		case 1:
			return netip.AddrFrom16(netip.AddrFrom4([4]byte{10, 9, 0, b}).As16())
		case 2:
			return netip.AddrFrom16([16]byte{0xfe, 0x80, 15: b}).WithZone("eth0")
		default:
			return netip.AddrFrom4([4]byte{10, 0, 0, b})
		}
	}
	for i := 0; i < 3+rng.Intn(6); i++ {
		h := host(i)
		ad.hosts = append(ad.hosts, h)
		g.AddNode(Node{ID: h.String(), Kind: HostNode, Addr: h.String()})
		link(anywhere(), h.String())
	}

	g.AddNode(Node{ID: "isw", Kind: SwitchNode})
	for i := 0; i < 2; i++ {
		h := netip.AddrFrom4([4]byte{10, 8, 0, byte(i + 1)})
		ad.island = append(ad.island, h)
		g.AddNode(Node{ID: h.String(), Kind: HostNode, Addr: h.String()})
		link("isw", h.String())
	}

	g.AddNode(Node{ID: "rtr", Kind: RouterNode, Addr: "192.0.2.1"})
	link(anywhere(), "rtr")
	g.AddNode(Node{ID: "2001:DB8::ff", Kind: HostNode, Addr: "2001:db8::ff"})
	link(anywhere(), "2001:DB8::ff")
	plain := netip.AddrFrom4([4]byte{10, 7, 0, 1})
	g.AddNode(Node{ID: plain.String(), Kind: HostNode, Addr: plain.String()})
	link(anywhere(), plain.String())
	ad.hosts = append(ad.hosts, plain)
	ad.unknown = []netip.Addr{
		netip.MustParseAddr("192.0.2.1"),
		netip.MustParseAddr("2001:db8::ff"),
		netip.AddrFrom16(plain.As16()),
		netip.MustParseAddr("203.0.113.9"),
	}
	return ad
}

// query draws 1-8 flows over the main component — self-flows and
// repeated endpoints included — and, four times in ten, plants one
// endpoint that cannot be routed to, as a source or as a destination.
func (ad *addressed) query(rng *rand.Rand) []AddrFlow {
	pick := func(from []netip.Addr) netip.Addr { return from[rng.Intn(len(from))] }
	flows := make([]AddrFlow, 1+rng.Intn(8))
	for i := range flows {
		flows[i] = AddrFlow{Src: pick(ad.hosts), Dst: pick(ad.hosts)}
		if rng.Intn(2) == 0 {
			flows[i].Demand = float64(1+rng.Intn(50)) * 1e6
		}
	}
	if rng.Intn(10) < 4 {
		bad := pick(ad.unknown)
		if rng.Intn(2) == 0 {
			bad = pick(ad.island)
		}
		if f := &flows[rng.Intn(len(flows))]; rng.Intn(2) == 0 {
			f.Src = bad
		} else {
			f.Dst = bad
		}
	}
	return flows
}

func rendered(flows []AddrFlow) []FlowRequest {
	reqs := make([]FlowRequest, len(flows))
	for i, f := range flows {
		reqs[i] = FlowRequest{Src: f.Src.String(), Dst: f.Dst.String(), Demand: f.Demand}
	}
	return reqs
}

// allocAddrs collects the address entry's answers as FlowAlloc would
// have returned them for the rendered requests.
func allocAddrs(alloc func([]AddrFlow, FlowAnswer) error, flows []AddrFlow) ([]FlowPrediction, error) {
	reqs := rendered(flows)
	preds := make([]FlowPrediction, len(flows))
	err := alloc(flows, func(i int, avail float64, lat, jitter time.Duration, path []string) {
		preds[i] = FlowPrediction{Request: reqs[i], Available: avail, Latency: lat, Jitter: jitter, Path: path}
	})
	if err != nil {
		return nil, err
	}
	return preds, nil
}

// resolvedBy and resolvedFor are the address entry's two ways in: the
// index resolves the endpoints, or the caller has (as the Modeler does,
// once per distinct host, for the freshness check).
func resolvedBy(px *PathIndex) func([]AddrFlow, FlowAnswer) error {
	return func(flows []AddrFlow, answer FlowAnswer) error { return px.FlowAllocAddrs(flows, nil, answer) }
}

func resolvedFor(px *PathIndex) func([]AddrFlow, FlowAnswer) error {
	return func(flows []AddrFlow, answer FlowAnswer) error {
		ends := make([]int32, 0, 2*len(flows))
		for _, f := range flows {
			ends = append(ends, px.NodeOf(f.Src), px.NodeOf(f.Dst))
		}
		return px.FlowAllocAddrs(flows, ends, answer)
	}
}

// errClass is what the Modeler branches on: only an unknown endpoint
// merits a collector walk; no route is the answer.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, rerr.ErrNoRoute):
		return "no route"
	case errors.Is(err, rerr.ErrUnknownHost):
		return "unknown host"
	}
	return "other"
}

// assertLikeGraph holds index answers to the whole-graph calculation:
// paths, latency and jitter exactly, rates to rounding (the reduced
// capacity vector sums in a different order).
func assertLikeGraph(t *testing.T, g *Graph, reqs []FlowRequest, got []FlowPrediction) {
	t.Helper()
	want, err := g.FlowAlloc(reqs)
	if err != nil {
		t.Fatalf("graph alloc: %v", err)
	}
	for i, p := range got {
		w := want[i]
		if !reflect.DeepEqual(p.Path, w.Path) || p.Latency != w.Latency || p.Jitter != w.Jitter ||
			math.Abs(p.Available-w.Available) > 1e-6*math.Max(1, w.Available) {
			t.Fatalf("flow %d: index %+v\ngraph says %+v", i, p, w)
		}
	}
}

// TestPropertyAddrEntryMatchesTextEntry: the address entry, the text
// entry on the rendered endpoints and the whole-graph calculation agree —
// all three word for word on errors; the first two on answers too, the
// third on paths, latency, jitter, and rates to rounding.
func TestPropertyAddrEntryMatchesTextEntry(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ad := randomAddressed(rng)
		px := NewPathIndex(ad.g)
		for q := 0; q < 8; q++ {
			flows := ad.query(rng)
			reqs := rendered(flows)
			want, werr := px.FlowAlloc(reqs)
			got, gerr := allocAddrs(resolvedBy(px), flows)
			if pre, perr := allocAddrs(resolvedFor(px), flows); fmt.Sprint(perr) != fmt.Sprint(gerr) || !reflect.DeepEqual(pre, got) {
				t.Fatalf("seed %d %v: endpoints resolved beforehand %+v (%v)\nresolved by the index %+v (%v)", seed, flows, pre, perr, got, gerr)
			}
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || errClass(gerr) != errClass(werr) {
				t.Fatalf("seed %d %v: address entry fails with %v (%s), text entry with %v (%s)",
					seed, flows, gerr, errClass(gerr), werr, errClass(werr))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %v: address entry %+v\ntext entry says %+v", seed, flows, got, want)
			}
			seen[errClass(gerr)]++
			_, graphErr := ad.g.FlowAlloc(reqs)
			if fmt.Sprint(graphErr) != fmt.Sprint(gerr) || errClass(graphErr) != errClass(gerr) {
				t.Fatalf("seed %d %v: index says %v (%s), whole graph %v (%s)",
					seed, flows, gerr, errClass(gerr), graphErr, errClass(graphErr))
			}
			if gerr == nil {
				assertLikeGraph(t, ad.g, reqs, got)
			}
		}
	}
	for _, class := range []string{"ok", "no route", "unknown host"} {
		if seen[class] < 100 {
			t.Errorf("only %d of the queries drawn ended %q", seen[class], class)
		}
	}
	if seen["other"] > 0 {
		t.Errorf("%d queries failed outside the two routing classes", seen["other"])
	}
}

// TestAddrEntryUnknownEndpointsStayDistinct: which end is unknown is in
// the error, and a partitioned pair is not an unknown host — the Modeler
// walks the collectors for one and answers with the other.
func TestAddrEntryUnknownEndpointsStayDistinct(t *testing.T) {
	ad := randomAddressed(rand.New(rand.NewSource(1)))
	px := NewPathIndex(ad.g)
	nobody := netip.MustParseAddr("203.0.113.9")
	for _, tc := range []struct {
		flow  AddrFlow
		class string
		text  string
	}{
		{AddrFlow{Src: nobody, Dst: ad.hosts[0]}, "unknown host", "topology: path source 203.0.113.9 not in graph"},
		{AddrFlow{Src: ad.hosts[0], Dst: nobody}, "unknown host", "topology: path destination 203.0.113.9 not in graph"},
		{AddrFlow{Src: nobody, Dst: nobody}, "unknown host", "topology: path source 203.0.113.9 not in graph"},
		{AddrFlow{Src: netip.MustParseAddr("192.0.2.1"), Dst: ad.hosts[0]}, "unknown host", "topology: path source 192.0.2.1 not in graph"},
		{AddrFlow{Src: netip.Addr{}, Dst: ad.hosts[0]}, "unknown host", "topology: path source invalid IP not in graph"},
		{AddrFlow{Src: ad.hosts[0], Dst: ad.island[0]}, "no route",
			fmt.Sprintf("topology: no path from %v to %v", ad.hosts[0], ad.island[0])},
	} {
		_, err := allocAddrs(resolvedBy(px), []AddrFlow{tc.flow})
		if errClass(err) != tc.class || err.Error() != tc.text {
			t.Errorf("%v: %v (%s), want %q (%s)", tc.flow, err, errClass(err), tc.text, tc.class)
		}
	}
}

// TestAddrEntryAllocations pins what the address entry allocates on a
// warm index: the caller's answers and the slab their paths share.
func TestAddrEntryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	ad := randomAddressed(rand.New(rand.NewSource(9)))
	px := NewPathIndex(ad.g)
	flows := make([]AddrFlow, 8)
	for i := range flows {
		flows[i] = AddrFlow{Src: ad.hosts[i%len(ad.hosts)], Dst: ad.hosts[(i+1)%len(ad.hosts)]}
	}
	type answer struct {
		avail float64
		path  []string
	}
	query := func() {
		out := make([]answer, len(flows))
		err := px.FlowAllocAddrs(flows, nil, func(i int, avail float64, _, _ time.Duration, path []string) {
			out[i] = answer{avail, path}
		})
		if err != nil || len(out[0].path) == 0 {
			t.Fatal(err, out)
		}
	}
	query() // warm the trees and the pool
	if n := testing.AllocsPerRun(200, query); n > 2 {
		t.Fatalf("the address entry allocates %.0f times per 8-flow query, want 2", n)
	}
}

// fanGraph is spokes switches around a core, hosts hosts on each: a
// graph as wide as wanted, for the scratch tests and the benchmark.
func fanGraph(spokes, hosts int) (*Graph, []netip.Addr) {
	g := NewGraph()
	g.AddNode(Node{ID: "core", Kind: RouterNode})
	var addrs []netip.Addr
	for s := 0; s < spokes; s++ {
		sw := fmt.Sprintf("sw%d", s)
		g.AddNode(Node{ID: sw, Kind: SwitchNode})
		g.AddLink(Link{From: sw, To: "core", Capacity: 40e9, UtilFromTo: float64(s%7) * 1e9, Latency: 10 * time.Microsecond})
		for h := 0; h < hosts; h++ {
			a := netip.AddrFrom4([4]byte{10, byte(s >> 8), byte(s), byte(h + 1)})
			addrs = append(addrs, a)
			g.AddNode(Node{ID: a.String(), Kind: HostNode, Addr: a.String()})
			g.AddLink(Link{From: a.String(), To: sw, Capacity: 10e9, UtilToFrom: float64(h%5) * 1e9, Latency: 5 * time.Microsecond})
		}
	}
	return g, addrs
}

// TestScratchAlternatesBetweenIndexesAcrossStampWrap drives one scratch
// through a small and a large index in turn — every call reads slots the
// other index's call wrote — while the stamp counter passes 2³²; every
// answer is held to the whole-graph calculation.
func TestScratchAlternatesBetweenIndexesAcrossStampWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small := randomAddressed(rng)
	bigGraph, bigHosts := fanGraph(40, 50)
	type side struct {
		px    *PathIndex
		hosts []netip.Addr
	}
	sides := []side{{NewPathIndex(small.g), small.hosts}, {NewPathIndex(bigGraph), bigHosts}}
	st := new(flowScratch)
	check := func(round int) {
		t.Helper()
		s := sides[round%2]
		flows := make([]AddrFlow, 1+rng.Intn(8))
		for i := range flows {
			flows[i] = AddrFlow{Src: s.hosts[rng.Intn(len(s.hosts))], Dst: s.hosts[rng.Intn(len(s.hosts))]}
		}
		got, err := allocAddrs(func(f []AddrFlow, answer FlowAnswer) error {
			return s.px.flowAllocAddrs(st, f, nil, answer)
		}, flows)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		assertLikeGraph(t, s.px.Graph(), rendered(flows), got)
		text, err := s.px.flowAlloc(st, rendered(flows))
		if err != nil || !reflect.DeepEqual(text, got) {
			t.Fatalf("round %d: text entry on the same scratch: %+v (%v)\naddress entry said %+v", round, text, err, got)
		}
	}
	check(0) // the small index sizes the table; the large one must grow it
	if small, big := len(st.slots), 2*len(bigGraph.links); small >= big {
		t.Fatalf("the small index's table has %d slots, the large index needs %d: nothing to grow", small, big)
	}
	for round := 1; round < 12; round++ {
		check(round)
	}
	st.stamp = math.MaxUint32 - 6
	for round := 0; round < 24; round++ {
		check(round)
	}
	if st.stamp == 0 || st.stamp > 48 {
		t.Fatalf("stamp = %d after 48 calls across the wrap: it restarts at 1, 0 marking a never-written slot", st.stamp)
	}
}

// TestAddrTableBuiltBesideReaders: the shape's address tables are built
// with the shape, before any index over it exists, and only read
// afterwards: queries on generation N and N+1, which share them, run
// side by side (meaningful under -race: a table filled on first use, as
// it once was, is a write beside the other generation's lookup).
func TestAddrTableBuiltBesideReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ad := randomAddressed(rng)
	gens := []*PathIndex{NewPathIndex(ad.g)}
	gens = append(gens, NewPathIndexFrom(gens[0], remeasured(ad.g, rng)))
	if gens[1].shape != gens[0].shape {
		t.Fatal("a measurement-only generation built a new shape")
	}
	var flows []AddrFlow
	for _, a := range ad.hosts {
		for _, b := range ad.hosts {
			flows = append(flows, AddrFlow{Src: a, Dst: b})
		}
	}
	want := make([][]FlowPrediction, len(gens)) // each flow asked alone
	for i, px := range gens {
		for k := range flows {
			preds, err := px.FlowAlloc(rendered(flows[k : k+1]))
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], preds[0])
		}
	}
	for round := 0; round < 50; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				px, want := gens[w%2], want[w%2]
				for i := 0; i < 20; i++ {
					k := (w*31 + round + i) % len(flows)
					got, err := allocAddrs(resolvedBy(px), flows[k:k+1])
					if err == nil && !reflect.DeepEqual(got[0], want[k]) {
						err = fmt.Errorf("generation %d: %+v, want %+v", w%2, got[0], want[k])
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

// BenchmarkPathIndexFlowAlloc is an 8-flow query on a 10 101-node fan,
// asked in text and by address.
func BenchmarkPathIndexFlowAlloc(b *testing.B) {
	g, hosts := fanGraph(100, 100)
	px := NewPathIndex(g)
	rng := rand.New(rand.NewSource(1))
	sources := rng.Perm(len(hosts))[:32]
	queries := make([][]AddrFlow, 64)
	texts := make([][]FlowRequest, len(queries))
	for q := range queries {
		pick := rng.Perm(len(sources))[:3]
		for i := 0; i < 8; i++ {
			queries[q] = append(queries[q], AddrFlow{Src: hosts[sources[pick[i%3]]], Dst: hosts[rng.Intn(len(hosts))]})
		}
		texts[q] = rendered(queries[q])
		if _, err := px.FlowAlloc(texts[q]); err != nil { // build the sources' trees
			b.Fatal(err)
		}
	}
	b.Run("text", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := px.FlowAlloc(texts[i%len(texts)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("addr", func(b *testing.B) {
		out := make([]float64, 8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := px.FlowAllocAddrs(queries[i%len(queries)], nil, func(i int, avail float64, _, _ time.Duration, _ []string) {
				out[i] = avail
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
