package topology_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/snapshot"
	"remos/internal/topology"
)

// answer is one flow's allocation as every entry reports it.
type answer struct {
	Avail           float64
	Latency, Jitter time.Duration
	Path            []string
}

// answerPaths are the three ways a flow query is answered: the
// whole-graph calculation on the collectors' graph, the path index by
// address, and the path index of the snapshot generation the graph was
// applied as.
var answerPaths = [3]string{"Graph.FlowAlloc", "PathIndex.FlowAllocAddrs", "snapshot generation"}

// allAnswers asks every flow at once through each of the three ways.
func allAnswers(t *testing.T, g *topology.Graph, gen *snapshot.Snapshot, flows []topology.AddrFlow) [3][]answer {
	t.Helper()
	var out [3][]answer
	reqs := make([]topology.FlowRequest, len(flows))
	for i, f := range flows {
		reqs[i] = topology.FlowRequest{Src: f.Src.String(), Dst: f.Dst.String()}
	}
	preds, err := g.FlowAlloc(reqs)
	if err != nil {
		t.Fatalf("%s: %v", answerPaths[0], err)
	}
	for _, p := range preds {
		out[0] = append(out[0], answer{p.Available, p.Latency, p.Jitter, p.Path})
	}
	for k, px := range []*topology.PathIndex{topology.NewPathIndex(g), gen.Paths()} {
		got := make([]answer, len(flows))
		err := px.FlowAllocAddrs(flows, nil, func(i int, avail float64, lat, jitter time.Duration, path []string) {
			got[i] = answer{avail, lat, jitter, path}
		})
		if err != nil {
			t.Fatalf("%s: %v", answerPaths[k+1], err)
		}
		out[k+1] = got
	}
	return out
}

// generations applies before and then after to a new store, as two polls
// of the same region, and returns the two generations.
func generations(before, after *topology.Graph, hostsBefore, hostsAfter []netip.Addr) (*snapshot.Snapshot, *snapshot.Snapshot) {
	at := time.Unix(0, 0)
	store := snapshot.New(snapshot.Config{Now: func() time.Time { return at }})
	first := store.Apply(hostsBefore, &collector.Result{Graph: before}, at)
	return first, store.Apply(hostsAfter, &collector.Result{Graph: after}, at)
}

// TestMetamorphicIdleHostAndUnusedLink: on random connected fabrics, a
// change no requested flow touches changes no answer. Every ordered host
// pair is asked at once, by each of the three answer paths, before and
// after (i) a new host joins as a leaf over an idle link, and (ii) a link
// no requested path crosses changes its utilization; each pair's rate,
// latency, jitter and path must come out identical on every path.
func TestMetamorphicIdleHostAndUnusedLink(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, hosts := topology.RandomFabric(rng)
		var flows []topology.AddrFlow
		for _, a := range hosts {
			for _, b := range hosts {
				if a != b {
					flows = append(flows, topology.AddrFlow{Src: a, Dst: b})
				}
			}
		}

		// (i) An idle host: a leaf on a random node, its link unloaded.
		idle := g.Clone()
		leaf := netip.AddrFrom4([4]byte{10, 99, 0, 1})
		nodes := g.Nodes()
		idle.AddNode(topology.Node{ID: leaf.String(), Kind: topology.HostNode, Addr: leaf.String()})
		if _, err := idle.AddLink(topology.Link{
			From: nodes[rng.Intn(len(nodes))].ID, To: leaf.String(), Capacity: 100e6, Latency: time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
		before, after := generations(g, idle, hosts, append(hosts[:len(hosts):len(hosts)], leaf))
		want := allAnswers(t, g, before, flows)
		assertUnchanged(t, fmt.Sprintf("seed %d, idle host on %s", seed, idle.Links()[len(idle.Links())-1].From),
			flows, want, allAnswers(t, idle, after, flows))

		// (ii) An unused link: one no answer's path crosses.
		crossed := map[[2]string]bool{}
		for _, a := range want[0] {
			for i := 1; i < len(a.Path); i++ {
				crossed[[2]string{a.Path[i-1], a.Path[i]}] = true
				crossed[[2]string{a.Path[i], a.Path[i-1]}] = true
			}
		}
		var unused []*topology.Link
		for _, l := range g.Links() {
			if !crossed[[2]string{l.From, l.To}] {
				unused = append(unused, l)
			}
		}
		if len(unused) == 0 {
			t.Fatalf("seed %d: every link is on a requested path", seed)
		}
		pick := unused[rng.Intn(len(unused))]
		moved := g.Clone()
		l := moved.FindLink(pick.From, pick.To)
		l.UtilFromTo, l.UtilToFrom = l.Capacity*0.9, l.Capacity*0.7
		before, after = generations(g, moved, hosts, hosts)
		assertUnchanged(t, fmt.Sprintf("seed %d, link %s-%s moved", seed, pick.From, pick.To),
			flows, allAnswers(t, g, before, flows), allAnswers(t, moved, after, flows))
	}
}

func assertUnchanged(t *testing.T, change string, flows []topology.AddrFlow, want, got [3][]answer) {
	t.Helper()
	for k := range want {
		for i := range flows {
			if !reflect.DeepEqual(got[k][i], want[k][i]) {
				t.Fatalf("%s: %s answers %v->%v with %+v, was %+v",
					change, answerPaths[k], flows[i].Src, flows[i].Dst, got[k][i], want[k][i])
			}
		}
	}
}
