package snmpcoll

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"remos/internal/netsim"
	"remos/internal/sim"
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

// With the caches dropped before each query nothing survives between
// queries, and the graph is still the pairwise walk's.
func TestDiscoveryMatchesPairwiseWalkUncached(t *testing.T) {
	st := newSite(t, nil)
	ref := twin(t, st)
	hosts := hostSet(st, "h1", "h2", "h3", "h4")
	for range 2 {
		st.sc.DropCaches()
		AssertSameDiscovery(t, st.sc, ref, hosts)
	}
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

// TestRandomFabricDiscoveryMatchesPairwiseWalk is the cross-path gate on
// the numbered build: on random netsim fabrics, with a Bridge Collector
// over each draw's switches (one draw in four also without one), random
// host sets drawn within one routed component, a host sometimes named
// twice, are discovered cold and then warm, and the phased discovery must
// produce the graph and poll points of the pairwise walk, which keys its
// nodes and links by ID. Seeds come through testing/quick on a fixed
// list, so -quickchecks scales the draws (make property-soak).
func TestRandomFabricDiscoveryMatchesPairwiseWalk(t *testing.T) {
	draws, queries := 0, 0
	f := func(seed int64) bool {
		s := sim.NewSim()
		fab := netsim.RandomFabric(s, seed)
		draws++
		return t.Run(fab.Shape, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			st := siteOver(t, s, fab.Net, nil)
			defer st.stop()
			got, ref := st.sc, st.sc.Twin(nil)
			defer ref.Stop()
			if rng.Intn(4) == 0 {
				got = st.sc.Twin(func(c *Config) { c.Bridge, c.ResolveMAC = nil, nil })
				defer got.Stop()
				ref = got.Twin(nil)
				defer ref.Stop()
			}
			// The hosts one host reaches: one routed component.
			first := fab.Hosts[rng.Intn(len(fab.Hosts))]
			var reach []netip.Addr
			for _, h := range fab.Hosts {
				if _, err := fab.Net.Path(first, h); err == nil || h == first {
					reach = append(reach, h.Addr())
				}
			}
			for round := 0; round < 2; round++ {
				hosts := make([]netip.Addr, 1+rng.Intn(len(reach)))
				for i, k := range rng.Perm(len(reach))[:len(hosts)] {
					hosts[i] = reach[k]
				}
				if len(hosts) > 2 && rng.Intn(3) == 0 {
					hosts = append(hosts, hosts[rng.Intn(len(hosts))])
				}
				if round == 1 && len(hosts) > 1 {
					// Load on the first two's path, for both pollers to sample.
					if _, err := fab.Net.StartFlow(fab.Net.DeviceByIP(hosts[0]), fab.Net.DeviceByIP(hosts[1]), netsim.FlowSpec{Demand: 3e6}); err != nil {
						t.Fatal(err)
					}
				}
				AssertSameDiscovery(t, got, ref, hosts) // cold
				s.RunFor(11 * time.Second)
				AssertSameDiscovery(t, got, ref, hosts) // warm
				queries += 2
			}
		})
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCountScale: 1}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d fabrics, %d queries agree", draws, queries)
}
