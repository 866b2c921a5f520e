package topology

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// addressHosts gives the hosts distinct addresses, so that NodeByAddr has
// something to answer.
func addressHosts(g *Graph, hosts []string) {
	for i, h := range hosts {
		g.AddNode(Node{ID: h, Kind: HostNode, Addr: fmt.Sprintf("10.9.0.%d", i+1)})
	}
}

func encoded(t *testing.T, g *Graph) string {
	t.Helper()
	var b bytes.Buffer
	if err := g.EncodeText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// deepCopy is a graph sharing nothing with g: its own text, decoded.
func deepCopy(t *testing.T, g *Graph) *Graph {
	t.Helper()
	c, err := DecodeText(bytes.NewReader([]byte(encoded(t, g))))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// assertReadsLike holds g to ref on everything a reader asks: the text,
// and NodeByAddr and FindLink for every ID and address either graph has.
func assertReadsLike(t *testing.T, what string, g, ref *Graph) {
	t.Helper()
	if got, want := encoded(t, g), encoded(t, ref); got != want {
		t.Fatalf("%s: text\n%s\nwant\n%s", what, got, want)
	}
	var ids []string
	addrs := []string{"10.9.0.1", "192.0.2.200", "192.0.2.201", "192.0.2.202"}
	for _, gr := range []*Graph{g, ref} {
		for _, n := range gr.Nodes() {
			ids = append(ids, n.ID)
			addrs = append(addrs, n.Addr)
		}
	}
	for _, a := range addrs {
		got, want := g.NodeByAddr(a), ref.NodeByAddr(a)
		if (got == nil) != (want == nil) || got != nil && *got != *want {
			t.Fatalf("%s: NodeByAddr(%q) = %v, want %v", what, a, got, want)
		}
	}
	for _, a := range ids {
		for _, b := range ids {
			got, want := g.FindLink(a, b), ref.FindLink(a, b)
			if (got == nil) != (want == nil) || got != nil && *got != *want {
				t.Fatalf("%s: FindLink(%s, %s) = %v, want %v", what, a, b, got, want)
			}
		}
	}
}

// cloneMutators are every way a graph can be changed, structurally or by
// writing a link's measurements.
var cloneMutators = []struct {
	name string
	do   func(t *testing.T, g *Graph, rng *rand.Rand)
}{
	{"AddNode (new)", func(t *testing.T, g *Graph, _ *rand.Rand) {
		g.AddNode(Node{ID: "zz-new", Kind: HostNode, Addr: "192.0.2.200"})
	}},
	{"AddNode (replace)", func(t *testing.T, g *Graph, _ *rand.Rand) {
		g.AddNode(Node{ID: "h0", Kind: RouterNode, Addr: "192.0.2.201"})
	}},
	{"AddLink", func(t *testing.T, g *Graph, _ *rand.Rand) {
		if _, err := g.AddLink(Link{From: "h0", To: "h1", Capacity: 1e9}); err != nil {
			t.Fatal(err)
		}
	}},
	{"link writes", func(t *testing.T, g *Graph, rng *rand.Rand) {
		for _, l := range g.Links() {
			l.UtilFromTo = float64(rng.Intn(50)) * 1e6
		}
		last := g.Links()[len(g.Links())-1]
		g.FindLink(last.To, last.From).Capacity = 7
	}},
	{"Merge", func(t *testing.T, g *Graph, rng *rand.Rand) {
		other, _ := randomTree(rng) // shares IDs n0.., h0.. with g
		other.AddNode(Node{ID: "zz-merged", Kind: SwitchNode, Addr: "192.0.2.202"})
		other.AddLink(Link{From: "zz-merged", To: "h0", Capacity: 1e9})
		g.Merge(other)
	}},
	{"Update", func(t *testing.T, g *Graph, rng *rand.Rand) {
		other, _ := randomTree(rng)
		other.AddNode(Node{ID: "h1", Kind: HostNode, Addr: "192.0.2.201"}) // rebinds h1
		other.AddNode(Node{ID: "zz-updated", Kind: SwitchNode})
		other.AddLink(Link{From: "zz-updated", To: "h1", Capacity: 1e9})
		g.Update(other)
	}},
	{"Update (measurements only)", func(t *testing.T, g *Graph, rng *rand.Rand) {
		poll := deepCopy(t, g)
		for _, l := range poll.Links() {
			l.UtilToFrom = float64(rng.Intn(50)) * 1e6
		}
		g.Update(poll)
	}},
	{"Prune", func(t *testing.T, g *Graph, _ *rand.Rand) {
		p, err := g.Prune([]string{"h0", "h1"})
		if err != nil {
			t.Fatal(err)
		}
		p.CollapseChains(map[string]bool{"h0": true, "h1": true})
		for _, l := range p.Links() {
			l.Capacity = 1
		}
	}},
	{"CollapseSwitchClouds", func(t *testing.T, g *Graph, _ *rand.Rand) {
		g.CollapseSwitchClouds("cloud")
	}},
	{"CollapseChains", func(t *testing.T, g *Graph, _ *rand.Rand) {
		g.CollapseChains(map[string]bool{"h0": true, "h1": true})
	}},
}

// assertIndexLikeRebuild holds the index NewPathIndexFrom builds over g
// after prev — on the shape g carries, or on prev's — to a fresh index
// over a copy of g with no memo: every node pair must route alike and see
// the same bottleneck.
func assertIndexLikeRebuild(t *testing.T, after string, prev *PathIndex, g *Graph) {
	t.Helper()
	ref := g.Clone()
	ref.invalidate()
	px, rx := NewPathIndexFrom(prev, g), NewPathIndex(ref)
	nodes := g.Nodes()
	for _, a := range nodes {
		for _, b := range nodes {
			bw, got, gotErr := loneFlow(px, a.ID, b.ID)
			wantBW, want, wantErr := loneFlow(rx, a.ID, b.ID)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || bw != wantBW || !reflect.DeepEqual(got, want) {
				t.Fatalf("after %s: index says %s -> %s is %v at %g (%v); a rebuilt one says %v at %g (%v)",
					after, a.ID, b.ID, got, bw, gotErr, want, wantBW, wantErr)
			}
		}
	}
}

// TestCloneIsolatesEveryMutator: whichever side of a Clone a mutator runs
// on, the other side reads as it did, and the side mutated reads as a
// graph sharing nothing would after the same mutation. Both sides route —
// by Graph and by an index built after the original's — as they would
// with no memo carried. The original is either built node by node, its
// node map and shape warm when it is cloned, or decoded and cloned before
// anything reads it, so that each side builds its own node map.
func TestCloneIsolatesEveryMutator(t *testing.T) {
	for _, m := range cloneMutators {
		for _, mutateClone := range []bool{false, true} {
			for seed := int64(1); seed <= 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g, hosts := randomMeshed(rng)
				addressHosts(g, hosts)
				var c *Graph
				if unread := seed%2 == 0; unread {
					g = deepCopy(t, g)
					c = g.Clone()
				}
				if _, err := g.Path(hosts[0], hosts[1]); err != nil { // a warm memo on the original
					t.Fatal(err)
				}
				prev := NewPathIndexFrom(nil, g) // on that memo, with a tree
				if _, err := prev.Path(hosts[1], hosts[0]); err != nil {
					t.Fatal(err)
				}
				if c == nil {
					c = g.Clone()
				}
				mutated, other := g, c
				if mutateClone {
					mutated, other = c, g
				}
				otherRef, mutatedRef := deepCopy(t, other), deepCopy(t, mutated)
				m.do(t, mutated, rand.New(rand.NewSource(seed)))
				m.do(t, mutatedRef, rand.New(rand.NewSource(seed)))
				what := fmt.Sprintf("%s on the original, seed %d", m.name, seed)
				if mutateClone {
					what = fmt.Sprintf("%s on the clone, seed %d", m.name, seed)
				}
				assertReadsLike(t, what+" (the other side)", other, otherRef)
				assertReadsLike(t, what+" (the side mutated)", mutated, mutatedRef)
				assertRoutesLikeClone(t, what, other)
				assertRoutesLikeClone(t, what, mutated)
				assertIndexLikeRebuild(t, what, prev, other)
				assertIndexLikeRebuild(t, what, prev, mutated)
			}
		}
	}
}

// twinID is a node the writers below add beside hosts[0], carrying its
// address 10.9.0.1 under that address as its ID: NodeByAddr names it
// rather than hosts[0] in the clone it is added to, and in that clone
// only.
const twinID = "10.9.0.1"

// TestCloneBesideReaders has readers clone and read a graph while another
// goroutine mutates a third clone of it, structurally and not (meaningful
// under -race).
func TestCloneBesideReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g, hosts := randomClouded(rng)
	addressHosts(g, hosts)
	want := encoded(t, g)
	wantPath, err := g.Path(hosts[0], hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c := g.Clone()
				c.Links()[i%len(c.Links())].UtilFromTo = float64(w) // the clone's own links
				var b bytes.Buffer
				g.EncodeText(&b)
				path, err := c.Path(hosts[0], hosts[1])
				switch {
				case b.String() != want:
					err = fmt.Errorf("reader %d: the original's text changed", w)
				case err == nil && !reflect.DeepEqual(path, wantPath):
					err = fmt.Errorf("reader %d: clone routes %v, want %v", w, path, wantPath)
				case g.NodeByAddr("10.9.0.1") == nil || g.NodeByAddr("10.9.0.1").ID != hosts[0]:
					err = fmt.Errorf("reader %d: the original lost %s's address", w, hosts[0])
				case g.FindLink(hosts[0], twinID) != nil:
					err = fmt.Errorf("reader %d: the original found a link the writer added", w)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			m := g.Clone()
			poll := m.Clone()
			for _, l := range poll.Links() {
				l.UtilToFrom = float64(i)
			}
			m.Update(poll)
			m.AddNode(Node{ID: twinID, Kind: SwitchNode, Addr: "10.9.0.1"})
			m.AddLink(Link{From: hosts[0], To: twinID, Capacity: 1})
			m.CollapseSwitchClouds("v")
			if m.NodeByAddr("10.9.0.1").ID != twinID {
				errs <- fmt.Errorf("writer: the mutated clone does not answer its own node for 10.9.0.1")
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFirstReadsRace has eight readers make the first lookups on a decoded
// graph nothing has read, half of them on a Clone taken before any read,
// each reader starting with another lookup, while a writer mutates a
// third clone (meaningful under -race): racing builders of a table share
// the first one stored, and every reader reads what the graph's text
// says.
func TestFirstReadsRace(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	src, hosts := randomClouded(rng)
	addressHosts(src, hosts)
	wantPath, err := src.Path(hosts[0], hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := src.Nodes()
	for round := 0; round < 20; round++ {
		g := deepCopy(t, src)
		c, m := g.Clone(), g.Clone()
		var wg sync.WaitGroup
		errs := make(chan error, 9)
		for w := 0; w < 8; w++ {
			r := g
			if w%2 == 1 {
				r = c
			}
			reads := []func() error{
				func() error {
					for _, n := range wantNodes {
						if got := r.Node(n.ID); got == nil || *got != *n {
							return fmt.Errorf("Node(%s) = %v, want %v", n.ID, got, *n)
						}
					}
					return nil
				},
				func() error {
					if n := r.NodeByAddr("10.9.0.1"); n == nil || n.ID != hosts[0] {
						return fmt.Errorf("NodeByAddr(10.9.0.1) = %v, want %s", n, hosts[0])
					}
					return nil
				},
				func() error {
					for _, l := range src.Links() {
						if got := r.FindLink(l.To, l.From); got == nil || *got != *src.FindLink(l.From, l.To) {
							return fmt.Errorf("FindLink(%s, %s) = %v", l.To, l.From, got)
						}
					}
					if r.FindLink(hosts[0], twinID) != nil {
						return fmt.Errorf("found a link the writer added")
					}
					return nil
				},
				func() error {
					if got := r.Nodes(); !reflect.DeepEqual(got, wantNodes) {
						return fmt.Errorf("Nodes() = %v, want %v", got, wantNodes)
					}
					return nil
				},
				func() error {
					if path, err := r.Path(hosts[0], hosts[1]); err != nil || !reflect.DeepEqual(path, wantPath) {
						return fmt.Errorf("Path = %v (%v), want %v", path, err, wantPath)
					}
					return nil
				},
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range reads {
					if err := reads[(w+i)%len(reads)](); err != nil {
						errs <- fmt.Errorf("round %d, reader %d: %v", round, w, err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.AddNode(Node{ID: twinID, Kind: SwitchNode, Addr: "10.9.0.1"})
			m.AddLink(Link{From: hosts[0], To: twinID, Capacity: 1})
			m.CollapseSwitchClouds("v")
			if n := m.NodeByAddr("10.9.0.1"); n == nil || n.ID != twinID {
				errs <- fmt.Errorf("round %d, writer: the mutated clone does not answer its own node for 10.9.0.1", round)
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if g.Node(hosts[0]) != c.Node(hosts[0]) {
			t.Fatalf("round %d: a graph and its clone name different nodes by one ID", round)
		}
	}
}

// TestPathIndexFromSharedStructure: a generation that still shares its
// structure with the previous one (a Clone updated with measurements only)
// shares the previous index's shape and trees, and one that took a
// private structure is held to the check.
func TestPathIndexFromSharedStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g, hosts := randomMeshed(rng)
	px := NewPathIndex(g)
	reqs := randomRequests(rng, hosts)
	if _, err := px.FlowAlloc(reqs); err != nil {
		t.Fatal(err)
	}
	built := px.TreeBuilds()
	next := remeasured(g, rng)
	if !next.sharesStructure(g) {
		t.Fatal("a measurement-only Update took a private structure")
	}
	nx := NewPathIndexFrom(px, next)
	if !nx.SharesNumbers(px) {
		t.Fatal("a structure-sharing generation built a new shape")
	}
	if _, err := nx.FlowAlloc(reqs); err != nil {
		t.Fatal(err)
	}
	if nx.TreeBuilds() != built {
		t.Fatalf("the shared shape built %d more trees", nx.TreeBuilds()-built)
	}
	assertAnswersMatch(t, nx, hosts, reqs)

	moved := next.Clone()
	moved.AddNode(Node{ID: "zz-new", Kind: HostNode})
	if moved.sharesStructure(next) {
		t.Fatal("AddNode left the structure shared")
	}
	if NewPathIndexFrom(nx, moved).SharesNumbers(nx) {
		t.Fatal("a generation with a node more shares the shape")
	}
}
