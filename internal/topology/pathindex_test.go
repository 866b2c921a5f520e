package topology

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"remos/internal/rerr"
)

// TestPathIndexMatchesGraph pins the snapshot plane's core equivalence:
// PathIndex answers (paths, bottlenecks, max-min allocations over the
// reduced capacity vector, latencies and jitters) are exactly those of
// the whole-graph calculation on random topologies, each link loaded
// differently in each direction — the same arithmetic on the same
// numbers, so equal bit for bit, not approximately.
func TestPathIndexMatchesGraph(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0x1dec5))
		g, hosts := randomTree(rng)
		px := NewPathIndex(g)
		// All-pairs single answers.
		for i := 0; i < len(hosts); i++ {
			for j := 0; j < len(hosts); j++ {
				if i == j {
					continue
				}
				a, b := hosts[i], hosts[j]
				wantPath, err1 := g.Path(a, b)
				gotPath, err2 := px.Path(a, b)
				if err1 != nil || err2 != nil {
					t.Logf("path errors: %v / %v", err1, err2)
					return false
				}
				if !slices.Equal(wantPath, gotPath) {
					t.Logf("path %s->%s: %v vs %v", a, b, wantPath, gotPath)
					return false
				}
				wantBw, wantVia, err1 := loneFlow(g, a, b)
				gotBw, gotVia, err2 := loneFlow(px, a, b)
				if err1 != nil || err2 != nil || wantBw != gotBw || !slices.Equal(wantVia, gotVia) {
					t.Logf("bottleneck %s->%s: %v via %v vs %v via %v (%v/%v)", a, b, wantBw, wantVia, gotBw, gotVia, err1, err2)
					return false
				}
			}
		}
		// A batched flow query: reduced-vector max-min must equal the
		// whole-graph allocation.
		nFlows := 2 + rng.Intn(4)
		reqs := make([]FlowRequest, nFlows)
		for i := range reqs {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			for dst == src {
				dst = hosts[rng.Intn(len(hosts))]
			}
			var demand float64
			if rng.Intn(2) == 0 {
				demand = float64(1+rng.Intn(50)) * 1e6
			}
			reqs[i] = FlowRequest{Src: src, Dst: dst, Demand: demand}
		}
		want, err1 := g.FlowAlloc(reqs)
		got, err2 := px.FlowAlloc(reqs)
		if err1 != nil || err2 != nil {
			t.Logf("alloc errors: %v / %v", err1, err2)
			return false
		}
		for i := range want {
			w, o := want[i], got[i]
			if w.Request != o.Request || w.Available != o.Available || w.Latency != o.Latency ||
				w.Jitter != o.Jitter || !slices.Equal(w.Path, o.Path) {
				t.Logf("flow %d: %+v vs %+v", i, w, o)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func pathIndexFixture() *PathIndex {
	g := NewGraph()
	for _, n := range []Node{
		{ID: "h1", Kind: HostNode}, {ID: "h2", Kind: HostNode},
		{ID: "r1", Kind: RouterNode},
		{ID: "island", Kind: HostNode}, // no links: unreachable
	} {
		g.AddNode(n)
	}
	g.AddLink(Link{From: "h1", To: "r1", Capacity: 100e6})
	g.AddLink(Link{From: "r1", To: "h2", Capacity: 10e6, UtilFromTo: 4e6})
	return NewPathIndex(g)
}

// A link decoded with a NaN capacity or a non-finite utilization has
// nothing available across it: a flow over it is answered 0, not +Inf.
func TestNonFiniteLinkAnswersZero(t *testing.T) {
	for _, tc := range []struct {
		link     string
		fwd, rev float64 // what 10.0.0.1->10.0.0.2 and back get
	}{
		{"LINK 10.0.0.1 10.0.0.2 NaN 0 0 1000 0", 0, 0},
		{"LINK 10.0.0.1 10.0.0.2 1e+06 -Inf 0 1000 0", 0, 1e6},
		{"LINK 10.0.0.1 10.0.0.2 1e+06 0 +Inf 1000 0", 1e6, 0},
		{"LINK 10.0.0.1 10.0.0.2 1e+06 NaN 0 1000 0", 0, 1e6},
	} {
		text := "GRAPH 2 1\nNODE 10.0.0.1 host 10.0.0.1\nNODE 10.0.0.2 host 10.0.0.2\n" + tc.link + "\nEND\n"
		g, err := DecodeText(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: %v", tc.link, err)
		}
		preds, err := NewPathIndex(g).FlowAlloc([]FlowRequest{
			{Src: "10.0.0.1", Dst: "10.0.0.2"}, {Src: "10.0.0.2", Dst: "10.0.0.1"},
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.link, err)
		}
		if preds[0].Available != tc.fwd || preds[1].Available != tc.rev {
			t.Errorf("%s: flows get %v and %v, want %v and %v", tc.link, preds[0].Available, preds[1].Available, tc.fwd, tc.rev)
		}
	}
}

// A link decoded with an infinite capacity never saturates: a flow
// across it gets what its other links leave, asked alone or beside an
// unrelated flow that fills its own link first.
func TestInfiniteLinkNeverSaturates(t *testing.T) {
	g, err := DecodeText(strings.NewReader("GRAPH 5 3\n" +
		"NODE 10.0.0.1 host 10.0.0.1\nNODE 10.0.0.2 host 10.0.0.2\nNODE 10.0.0.3 host 10.0.0.3\n" +
		"NODE 10.0.0.4 host 10.0.0.4\nNODE 10.0.0.9 router 10.0.0.9\n" +
		"LINK 10.0.0.1 10.0.0.9 +Inf 0 0 1000 0\nLINK 10.0.0.9 10.0.0.2 1e+08 0 0 1000 0\n" +
		"LINK 10.0.0.3 10.0.0.4 1e+07 0 0 1000 0\nEND\n"))
	if err != nil {
		t.Fatal(err)
	}
	px := NewPathIndex(g)
	for _, reqs := range [][]FlowRequest{
		{{Src: "10.0.0.1", Dst: "10.0.0.2"}},
		{{Src: "10.0.0.1", Dst: "10.0.0.2"}, {Src: "10.0.0.3", Dst: "10.0.0.4"}},
	} {
		preds, err := px.FlowAlloc(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if preds[0].Available != 1e8 || len(preds) == 2 && preds[1].Available != 1e7 {
			t.Errorf("%d flows over an infinite link: %+v, want 1e8 for the first, 1e7 for the second", len(reqs), preds)
		}
	}
}

func TestPathIndexUnknownHost(t *testing.T) {
	px := pathIndexFixture()
	if _, err := px.Path("ghost", "h2"); !errors.Is(err, rerr.ErrUnknownHost) {
		t.Fatalf("unknown source err = %v, want ErrUnknownHost", err)
	}
	if _, err := px.Path("h1", "ghost"); !errors.Is(err, rerr.ErrUnknownHost) {
		t.Fatalf("unknown destination err = %v, want ErrUnknownHost", err)
	}
	if _, err := px.FlowAlloc([]FlowRequest{{Src: "h1", Dst: "ghost"}}); !errors.Is(err, rerr.ErrUnknownHost) {
		t.Fatalf("FlowAlloc unknown host err = %v, want ErrUnknownHost", err)
	}
}

// flowAllocator answers flow queries: a Graph or a PathIndex.
type flowAllocator interface {
	FlowAlloc([]FlowRequest) ([]FlowPrediction, error)
}

// loneFlow asks a for a lone flow from -> to: its max-min rate is the
// path's bottleneck available bandwidth.
func loneFlow(a flowAllocator, from, to string) (float64, []string, error) {
	preds, err := a.FlowAlloc([]FlowRequest{{Src: from, Dst: to}})
	if err != nil {
		return 0, nil, err
	}
	return preds[0].Available, preds[0].Path, nil
}

func TestPathIndexNoRoute(t *testing.T) {
	px := pathIndexFixture()
	if _, err := px.Path("h1", "island"); !errors.Is(err, rerr.ErrNoRoute) {
		t.Fatalf("unreachable err = %v, want ErrNoRoute", err)
	}
	if _, _, err := loneFlow(px, "island", "h2"); !errors.Is(err, rerr.ErrNoRoute) {
		t.Fatalf("unreachable bottleneck err = %v, want ErrNoRoute", err)
	}
}

func TestPathIndexSameEndpoint(t *testing.T) {
	px := pathIndexFixture()
	p, err := px.Path("h1", "h1")
	if err != nil || len(p) != 1 || p[0] != "h1" {
		t.Fatalf("self path = %v err = %v", p, err)
	}
	// A self flow crosses no links: elastic means unbounded, like the
	// whole-graph calculation.
	preds, err := px.FlowAlloc([]FlowRequest{{Src: "h1", Dst: "h1"}})
	if err != nil {
		t.Fatal(err)
	}
	wantPreds, err := px.Graph().FlowAlloc([]FlowRequest{{Src: "h1", Dst: "h1"}})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(preds[0].Available, 1) || preds[0].Available != wantPreds[0].Available {
		t.Fatalf("self flow available = %v, graph says %v", preds[0].Available, wantPreds[0].Available)
	}
}

// TestPathIndexConcurrentUse exercises the tree memo under concurrent
// readers (meaningful under -race).
func TestPathIndexConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, hosts := randomTree(rng)
	px := NewPathIndex(g)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := hosts[(w+i)%len(hosts)]
				dst := hosts[(w+i+1)%len(hosts)]
				if _, err := px.FlowAlloc([]FlowRequest{{Src: src, Dst: dst}}); err != nil {
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
