package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"remos/internal/sim"
	"remos/internal/topology"
)

// graphSignature renders a graph canonically: nodes sorted by ID, links
// sorted with endpoints in lexicographic order, every annotation
// included. Two graphs with equal signatures are exactly equal.
func graphSignature(g *topology.Graph) string {
	var b strings.Builder
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "N %s %s %s\n", n.ID, n.Kind, n.Addr)
	}
	lines := make([]string, 0, len(g.Links()))
	for _, l := range g.Links() {
		from, to := l.From, l.To
		uf, ut := l.UtilFromTo, l.UtilToFrom
		if from > to {
			from, to = to, from
			uf, ut = ut, uf
		}
		lines = append(lines, fmt.Sprintf("L %s %s %g %g %g %v %v", from, to, l.Capacity, uf, ut, l.Latency, l.Jitter))
	}
	sort.Strings(lines)
	b.WriteString(strings.Join(lines, "\n"))
	return b.String()
}

// checkReconstruction pins the federation stitch invariant on one
// network: for every tested k, the union of the per-domain interiors
// plus the border links — and equally the merge of the serving graphs —
// reconstructs the original topology exactly.
func checkReconstruction(t *testing.T, n *Network, k int) {
	t.Helper()
	truth, err := TopologyGraph(n)
	if err != nil {
		t.Fatalf("TopologyGraph: %v", err)
	}
	p, err := PartitionDomains(n, k)
	if err != nil {
		t.Fatalf("PartitionDomains(k=%d): %v", k, err)
	}
	total := 0
	for i := range p.Domains {
		total += len(p.Domains[i])
	}
	if total != len(n.Devices()) {
		t.Fatalf("k=%d: partition covers %d of %d devices", k, total, len(n.Devices()))
	}

	// Interiors plus declared borders.
	union := topology.NewGraph()
	for i := 0; i < k; i++ {
		dg, err := p.DomainGraph(i)
		if err != nil {
			t.Fatalf("DomainGraph(%d): %v", i, err)
		}
		union.Merge(dg)
	}
	intraLinks := len(union.Links())
	for _, l := range p.Borders {
		union.Merge(borderOnly(l))
	}
	if got, want := graphSignature(union), graphSignature(truth); got != want {
		t.Fatalf("k=%d: domain union + borders != original topology\ngot:\n%s\nwant:\n%s", k, got, want)
	}
	if intraLinks+len(p.Borders) != len(truth.Links()) {
		t.Fatalf("k=%d: %d intra + %d border links != %d total", k, intraLinks, len(p.Borders), len(truth.Links()))
	}

	// Serving graphs stitched the way the federation router stitches.
	stitched := topology.NewGraph()
	for i := 0; i < k; i++ {
		sg, err := p.ServingGraph(i)
		if err != nil {
			t.Fatalf("ServingGraph(%d): %v", i, err)
		}
		stitched.Merge(sg)
	}
	if got, want := graphSignature(stitched), graphSignature(truth); got != want {
		t.Fatalf("k=%d: stitched serving graphs != original topology\ngot:\n%s\nwant:\n%s", k, got, want)
	}
}

// borderOnly renders one border link as a two-node graph for merging.
func borderOnly(l *Link) *topology.Graph {
	g := topology.NewGraph()
	g.AddNode(nodeFor(l.A.Dev))
	g.AddNode(nodeFor(l.B.Dev))
	if _, err := g.AddLink(linkFor(l)); err != nil {
		panic(err)
	}
	return g
}

func TestPartitionReconstructsTwoTier(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8} {
		s := sim.NewSim()
		n := New(s)
		BuildTwoTier(n, TwoTierSpec{Spines: 3, Leaves: 8, HostsPerLeaf: 4})
		checkReconstruction(t, n, k)
	}
}

// TestPartitionReconstructsRandomNetworks runs the stitch invariant on
// random fabrics, transit routers, bridged clouds and islands included,
// each cut into 1 to one domain per router.
func TestPartitionReconstructsRandomNetworks(t *testing.T) {
	f := func(seed int64) bool {
		fab := RandomFabric(sim.NewSim(), seed)
		defer func() {
			if t.Failed() {
				t.Log(fab.Shape)
			}
		}()
		checkReconstruction(t, fab.Net, 1+rand.New(rand.NewSource(seed^0x9a7)).Intn(len(fab.Routers)))
		return true
	}
	if err := quick.Check(f, fabricChecks(0.24)); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionDomainsErrors(t *testing.T) {
	s := sim.NewSim()
	n := New(s)
	BuildTwoTier(n, TwoTierSpec{Spines: 1, Leaves: 1, HostsPerLeaf: 1})
	if _, err := PartitionDomains(n, 0); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := PartitionDomains(n, len(n.Devices())+1); err == nil {
		t.Fatal("k > devices should fail")
	}
}

func TestPartitionHostPrefixesCoverHosts(t *testing.T) {
	s := sim.NewSim()
	n := New(s)
	tt := BuildTwoTier(n, TwoTierSpec{Spines: 2, Leaves: 6, HostsPerLeaf: 3})
	p, err := PartitionDomains(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range tt.Hosts {
		dom := p.DomainOf(h)
		covered := false
		for _, pfx := range p.HostPrefixes(dom) {
			if pfx.Contains(h.ManagementAddr()) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("host %s (domain %d) not covered by its domain's prefixes", h.ManagementAddr(), dom)
		}
		// The owning domain must hold the longest matching prefix across
		// all domains, so directory lookups route to the right master.
		best, bestDom := -1, -1
		for i := 0; i < p.K(); i++ {
			for _, pfx := range p.HostPrefixes(i) {
				if pfx.Contains(h.ManagementAddr()) && pfx.Bits() > best {
					best, bestDom = pfx.Bits(), i
				}
			}
		}
		if bestDom != dom {
			t.Fatalf("host %s: longest prefix owned by domain %d, device in domain %d", h.ManagementAddr(), bestDom, dom)
		}
	}
}
