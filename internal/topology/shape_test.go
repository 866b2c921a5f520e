package topology

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// randomMeshed is a property_test.go topology with chords and parallel
// links (in both orientations) added, so that BFS has ties to break and
// parallel-link order matters — a tree has neither.
func randomMeshed(rng *rand.Rand) (*Graph, []string) {
	g, hosts := randomTree(rng)
	if rng.Intn(2) == 0 {
		g, hosts = randomClouded(rng)
	}
	nodes := g.Nodes()
	link := func(from, to string) {
		g.AddLink(Link{
			From: from, To: to,
			Capacity:   float64(10+rng.Intn(90)) * 1e6,
			UtilFromTo: float64(rng.Intn(9)) * 1e6,
			UtilToFrom: float64(rng.Intn(9)) * 1e6,
			Latency:    time.Duration(rng.Intn(10)) * time.Millisecond,
			Jitter:     time.Duration(rng.Intn(3)) * time.Millisecond,
		})
	}
	for k := 2 + rng.Intn(5); k > 0; k-- {
		a, b := nodes[rng.Intn(len(nodes))].ID, nodes[rng.Intn(len(nodes))].ID
		if a != b {
			link(a, b)
		}
	}
	for k := 1 + rng.Intn(2); k > 0; k-- {
		l := g.links[rng.Intn(len(g.links))]
		if rng.Intn(2) == 0 {
			link(l.From, l.To)
		} else {
			link(l.To, l.From)
		}
	}
	return g, hosts
}

// remeasured is what the snapshot plane makes of a poll that moved
// measurements only: a clone of g with a re-measured copy folded in.
func remeasured(g *Graph, rng *rand.Rand) *Graph {
	poll := g.Clone()
	for _, l := range poll.links {
		l.Capacity = float64(10+rng.Intn(90)) * 1e6
		l.UtilFromTo = float64(rng.Intn(12)) * 1e6
		l.UtilToFrom = float64(rng.Intn(12)) * 1e6
		l.Latency = time.Duration(rng.Intn(10)) * time.Millisecond
		l.Jitter = time.Duration(rng.Intn(3)) * time.Millisecond
	}
	next := g.Clone()
	next.Update(poll)
	return next
}

func randomRequests(rng *rand.Rand, hosts []string) []FlowRequest {
	reqs := make([]FlowRequest, 2+rng.Intn(5))
	for i := range reqs {
		reqs[i] = FlowRequest{Src: hosts[rng.Intn(len(hosts))], Dst: hosts[rng.Intn(len(hosts))]}
		if rng.Intn(2) == 0 {
			reqs[i].Demand = float64(1+rng.Intn(50)) * 1e6
		}
	}
	return reqs
}

// assertAnswersMatch holds got to the two references for its graph: a
// from-scratch index (exactly) and the whole-graph calculation (paths,
// latency and jitter exactly; rates to rounding, the reduced capacity
// vector sums in a different order).
func assertAnswersMatch(t *testing.T, got *PathIndex, hosts []string, reqs []FlowRequest) {
	t.Helper()
	g := got.Graph()
	fresh := NewPathIndex(g)
	for _, a := range hosts {
		for _, b := range hosts {
			wantPath, err := g.Path(a, b)
			if err != nil {
				t.Fatalf("graph path %s->%s: %v", a, b, err)
			}
			wantBw, _, _ := loneFlow(g, a, b)
			for name, px := range map[string]*PathIndex{"index": got, "fresh index": fresh} {
				path, err := px.Path(a, b)
				if err != nil || !reflect.DeepEqual(path, wantPath) {
					t.Fatalf("%s path %s->%s = %v (%v), graph says %v", name, a, b, path, err, wantPath)
				}
				if a == b {
					continue // a lone flow to itself crosses no link to bound it
				}
				bw, bpath, err := loneFlow(px, a, b)
				if err != nil || bw != wantBw || !reflect.DeepEqual(bpath, wantPath) {
					t.Fatalf("%s bottleneck %s->%s = %v %v (%v), graph says %v %v",
						name, a, b, bw, bpath, err, wantBw, wantPath)
				}
			}
		}
	}
	want, err := g.FlowAlloc(reqs)
	if err != nil {
		t.Fatalf("graph alloc: %v", err)
	}
	ref, err := fresh.FlowAlloc(reqs)
	if err != nil {
		t.Fatalf("fresh index alloc: %v", err)
	}
	preds, err := got.FlowAlloc(reqs)
	if err != nil {
		t.Fatalf("index alloc: %v", err)
	}
	if !reflect.DeepEqual(preds, ref) {
		t.Fatalf("index alloc %+v\nfresh index says %+v", preds, ref)
	}
	for i, p := range preds {
		w := want[i]
		if !reflect.DeepEqual(p.Path, w.Path) || p.Latency != w.Latency || p.Jitter != w.Jitter ||
			math.Abs(p.Available-w.Available) > 1e-6*math.Max(1, w.Available) {
			t.Fatalf("flow %d: index %+v\ngraph says %+v", i, p, w)
		}
	}
}

// TestShapeReuseMatchesFreshIndex is the differential: across chains of
// measurement-only generations the index that shares its predecessor's
// shape answers exactly as a from-scratch index and as the whole graph.
func TestShapeReuseMatchesFreshIndex(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, hosts := randomMeshed(rng)
		px := NewPathIndex(g)
		assertAnswersMatch(t, px, hosts, randomRequests(rng, hosts))
		for gen := 0; gen < 3; gen++ {
			next := NewPathIndexFrom(px, remeasured(px.Graph(), rng))
			if next.shape != px.shape {
				t.Fatalf("seed %d gen %d: a measurement-only generation built a new shape", seed, gen)
			}
			assertAnswersMatch(t, next, hosts, randomRequests(rng, hosts))
			px = next
		}
	}
}

// TestShapeChangeForcesFreshShape: every way a graph can stop routing
// like its predecessor — including the ones that keep the node and link
// counts — must be caught by the check, not assumed away.
func TestShapeChangeForcesFreshShape(t *testing.T) {
	base := func() *Graph {
		g := NewGraph()
		for _, id := range []string{"a", "b", "c", "d", "spare"} {
			g.AddNode(Node{ID: id, Kind: HostNode})
		}
		for i, l := range []Link{
			{From: "a", To: "b"}, {From: "b", To: "a"}, // parallel, opposite orientation
			{From: "b", To: "c"}, {From: "c", To: "d"}, {From: "a", To: "d"},
		} {
			l.Capacity = 100e6
			l.UtilFromTo, l.UtilToFrom = float64(i+1)*7e6, float64(i+1)*3e6
			l.Latency = time.Duration(i+1) * time.Millisecond
			g.AddLink(l)
		}
		return g
	}
	hosts := []string{"a", "b", "c", "d"}
	reqs := []FlowRequest{{Src: "a", Dst: "c"}, {Src: "d", Dst: "b"}, {Src: "b", Dst: "a", Demand: 5e6}}
	prev := NewPathIndex(base())
	assertAnswersMatch(t, prev, hosts, reqs) // fill the memo a careless reuse would read

	for name, mutate := range map[string]func(g *Graph){
		"node added":   func(g *Graph) { g.AddNode(Node{ID: "e", Kind: HostNode}) },
		"node removed": func(g *Graph) { g.removeNode("spare") },
		"link added":   func(g *Graph) { g.AddLink(Link{From: "b", To: "d", Capacity: 100e6}) },
		"link removed": func(g *Graph) { g.links = g.links[:len(g.links)-1]; g.invalidate() },
		"endpoints swapped": func(g *Graph) {
			l := g.links[2]
			l.From, l.To = l.To, l.From
		},
		"parallel links reordered": func(g *Graph) {
			g.links[0], g.links[1] = g.links[1], g.links[0]
			g.invalidate()
		},
		"same counts, another ID": func(g *Graph) {
			g.removeNode("spare")
			g.AddNode(Node{ID: "other", Kind: HostNode})
		},
		"same counts, link moved": func(g *Graph) {
			g.links[3].From = "b" // c-d becomes b-d
			g.invalidate()
		},
	} {
		t.Run(name, func(t *testing.T) {
			g := base()
			mutate(g)
			next := NewPathIndexFrom(prev, g)
			if next.shape == prev.shape {
				t.Error("the previous shape was reused")
			}
			if next.TreeBuilds() != 0 {
				t.Errorf("a new shape starts with %d trees built", next.TreeBuilds())
			}
			assertAnswersMatch(t, next, hosts, reqs)
		})
	}

	if next := NewPathIndexFrom(prev, base()); next.shape != prev.shape {
		t.Error("an identical graph built a new shape")
	}
	if next := NewPathIndexFrom(nil, base()); next.shape == nil {
		t.Error("no previous index: want a from-scratch shape")
	}
}

// TestSharedShapeSharesTrees: a generation that shares a shape finds
// the trees its predecessor built and builds none of its own.
func TestSharedShapeSharesTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, hosts := randomMeshed(rng)
	reqs := make([]FlowRequest, len(hosts))
	for i, h := range hosts {
		reqs[i] = FlowRequest{Src: h, Dst: hosts[(i+1)%len(hosts)]}
	}
	px := NewPathIndex(g)
	if _, err := px.FlowAlloc(reqs); err != nil {
		t.Fatal(err)
	}
	if got := px.TreeBuilds(); got != int64(len(hosts)) {
		t.Fatalf("built %d trees for %d sources", got, len(hosts))
	}
	next := NewPathIndexFrom(px, remeasured(g, rng))
	if _, err := next.FlowAlloc(reqs); err != nil {
		t.Fatal(err)
	}
	if got := next.TreeBuilds(); got != int64(len(hosts)) {
		t.Fatalf("a same-shape generation built %d more trees", got-int64(len(hosts)))
	}
}

// TestTreeMemoBudgetEvicts: past the byte budget the memo is dropped
// whole, and answers stay right across the drops.
func TestTreeMemoBudgetEvicts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, hosts := randomMeshed(rng)
	px := NewPathIndex(g)
	perTree := int64(len(px.shape.ids)) * 4
	px.shape.budget = 2 * perTree // room for two trees, evict on the third
	reqs := randomRequests(rng, hosts)
	for round := 0; round < 3; round++ {
		assertAnswersMatch(t, px, hosts, reqs)
		if held := px.shape.memo.Load().bytes.Load(); held > px.shape.budget {
			t.Fatalf("memo holds %d bytes over a budget of %d", held, px.shape.budget)
		}
	}
	// All-pairs over >= 3 sources cannot fit: rounds after the first
	// rebuild what eviction dropped.
	if builds := px.TreeBuilds(); builds <= int64(len(hosts)) {
		t.Fatalf("%d builds for %d sources over three rounds: nothing was evicted", builds, len(hosts))
	}
}

// TestFlowAllocSteadyStateAllocs pins what a warm FlowAlloc allocates:
// the predictions and the slab their paths share, nothing per hop or per
// flow.
func TestFlowAllocSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	rng := rand.New(rand.NewSource(9))
	g, hosts := randomMeshed(rng)
	px := NewPathIndex(g)
	reqs := make([]FlowRequest, 8)
	for i := range reqs {
		reqs[i] = FlowRequest{Src: hosts[i%len(hosts)], Dst: hosts[(i+1)%len(hosts)]}
	}
	if _, err := px.FlowAlloc(reqs); err != nil { // warm the trees and the pool
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := px.FlowAlloc(reqs); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("FlowAlloc allocates %.0f times per 8-flow query, want <= 2", n)
	}
}

// TestSharedMemoConcurrentGenerations has readers on generation N and
// N+1 build trees into the memo the two share (meaningful under -race),
// under a budget tight enough that evictions race the fills.
func TestSharedMemoConcurrentGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, hosts := randomMeshed(rng)
	gens := []*PathIndex{NewPathIndex(g)}
	gens = append(gens, NewPathIndexFrom(gens[0], remeasured(g, rng)))
	gens[0].shape.budget = 3 * int64(len(gens[0].shape.ids)) * 4
	want := make([][]FlowPrediction, len(gens))
	var reqs []FlowRequest
	for _, a := range hosts {
		for _, b := range hosts {
			reqs = append(reqs, FlowRequest{Src: a, Dst: b})
		}
	}
	for i, px := range gens {
		var err error
		if want[i], err = px.Graph().FlowAlloc(reqs); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			px, want := gens[w%2], want[w%2]
			for i := 0; i < 200; i++ {
				k := (w*31 + i) % len(reqs)
				got, err := px.FlowAlloc(reqs[k : k+1])
				if err == nil && !reflect.DeepEqual(got[0].Path, want[k].Path) {
					err = fmt.Errorf("generation %d %v: path %v, want %v", w%2, reqs[k], got[0].Path, want[k].Path)
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
		t.Error(err)
	}
}
