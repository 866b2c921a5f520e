package snmpcoll

import (
	"net/netip"
	"testing"
	"time"

	"remos/internal/netsim"
)

// twin returns a second collector on the site for the reference walk.
func twin(t testing.TB, st *site) *Collector {
	t.Helper()
	ref := st.sc.Twin(nil)
	t.Cleanup(ref.Stop)
	return ref
}

func hostSet(st *site, names ...string) []netip.Addr {
	out := make([]netip.Addr, len(names))
	for i, n := range names {
		out[i] = addrOf(st, n)
	}
	return out
}

// The small-site query shapes: one host, same LAN, across the WAN, every
// host in several orders, a host named twice.
var smallSiteQueries = [][]string{
	{"h1"},
	{"h1", "h3"},
	{"h1", "h2"},
	{"h2", "h1"},
	{"h1", "h2", "h3", "h4"},
	{"h4", "h3", "h2", "h1"},
	{"h3", "h1", "h4", "h2"},
	{"h1", "h1", "h2"},
}

func TestDiscoveryMatchesPairwiseWalk(t *testing.T) {
	for _, names := range smallSiteQueries {
		st := newSite(t, nil)
		if _, err := st.n.StartFlow(st.d["h1"], st.d["h2"], netsim.FlowSpec{Demand: 4e6}); err != nil {
			t.Fatal(err)
		}
		ref := twin(t, st)
		hosts := hostSet(st, names...)
		AssertSameDiscovery(t, st.sc, ref, hosts) // cold
		// Warm: both pollers have sampled the same counters at the same
		// instants, so the utilizations must agree too.
		st.s.RunFor(11 * time.Second)
		AssertSameDiscovery(t, st.sc, ref, hosts)
	}
}

// Without a Bridge Collector every host hangs off its gateway's virtual
// switch and every pair is routed.
func TestDiscoveryMatchesPairwiseWalkWithoutBridge(t *testing.T) {
	for _, names := range smallSiteQueries {
		st := newSite(t, func(c *Config) { c.Bridge = nil; c.ResolveMAC = nil })
		ref := twin(t, st)
		hosts := hostSet(st, names...)
		AssertSameDiscovery(t, st.sc, ref, hosts)
		st.s.RunFor(11 * time.Second)
		AssertSameDiscovery(t, st.sc, ref, hosts)
	}
}

// With the route cache disabled nothing survives between queries, and the
// graph is still the pairwise walk's.
func TestDiscoveryMatchesPairwiseWalkUncached(t *testing.T) {
	st := newSite(t, func(c *Config) { c.DisableRouteCache = true })
	ref := twin(t, st)
	hosts := hostSet(st, "h1", "h2", "h3", "h4")
	AssertSameDiscovery(t, st.sc, ref, hosts)
	AssertSameDiscovery(t, st.sc, ref, hosts)
}

func TestDiscoveryMatchesPairwiseWalkAfterMove(t *testing.T) {
	st := newSite(t, nil)
	ref := twin(t, st)
	hosts := hostSet(st, "h1", "h3", "h2")
	AssertSameDiscovery(t, st.sc, ref, hosts)
	// h3 moves to the other switch, staying in its subnet: the phased
	// discovery meets the stale bridge database first and must leave it,
	// and the graph, as the pairwise walk would have.
	st.n.MoveHost(st.d["h3"], st.d["swB"], 100e6, time.Millisecond)
	AssertSameDiscovery(t, st.sc, ref, hosts)
}
