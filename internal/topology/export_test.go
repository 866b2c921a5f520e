package topology

import (
	"math/rand"
	"net/netip"
	"reflect"
	"unsafe"
)

// RandomFabric is the property tests' addressed generator without its
// island and without parallel links, for tests outside the package: a
// connected random graph — chords, a router and an off-address host
// included — and the addresses of its hosts.
func RandomFabric(rng *rand.Rand) (*Graph, []netip.Addr) {
	ad := randomAddressed(rng)
	island := map[string]bool{"isw": true}
	for _, h := range ad.island {
		island[h.String()] = true
	}
	g := NewGraph()
	for _, n := range ad.g.Nodes() {
		if !island[n.ID] {
			g.AddNode(*n)
		}
	}
	linked := map[[2]string]bool{}
	for _, l := range ad.g.Links() {
		if k := pairKey(l.From, l.To); !island[l.From] && !linked[k] {
			linked[k] = true
			g.AddLink(*l)
		}
	}
	return g, ad.hosts
}

// sharesStructure reports whether g and other share one structure, which
// means the same node IDs and, link for link, the same endpoints in the
// same order: two graphs hold one node slab and node table only from a
// Clone that neither has mutated since.
func (g *Graph) sharesStructure(other *Graph) bool {
	return unsafe.SliceData(g.nodeSlab) == unsafe.SliceData(other.nodeSlab) &&
		reflect.ValueOf(g.builtNodes()).UnsafePointer() == reflect.ValueOf(other.builtNodes()).UnsafePointer()
}
