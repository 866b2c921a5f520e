package federation

import (
	"fmt"
	"testing"
	"time"

	"remos/internal/directory"
	"remos/internal/modeler"
	"remos/internal/netsim"
	"remos/internal/sim"
	"remos/internal/topology"
)

// TestRouterFollowsLeasesAlone registers a domain's primary (1 s lease)
// and secondary (10 s lease) once and renews neither. Once the clock
// passes the primary's expiry, with no other directory traffic at all,
// the next flow query is answered by the secondary and the router's
// snapshot no longer lists the primary: the directory's view is rebuilt
// by the lapse itself, not by the next registration.
func TestRouterFollowsLeasesAlone(t *testing.T) {
	s := sim.NewSim()
	n := netsim.New(s)
	tt := netsim.BuildTwoTier(n, netsim.TwoTierSpec{Spines: 2, Leaves: 4, HostsPerLeaf: 2})
	m := newMesh(t, n, s, 2)
	lease := func(domain int, name string, priority int, ttl time.Duration) {
		// The master heartbeats into a private directory once an hour;
		// the router's directory hears of it only through this one
		// registration.
		ds, err := StartDomain(DomainConfig{
			Name:      name,
			Domain:    fmt.Sprintf("dom%d", domain),
			Graph:     func() (*topology.Graph, error) { return m.p.ServingGraph(domain) },
			Hosts:     m.p.DomainHosts(domain),
			Prefixes:  m.p.HostPrefixes(domain),
			Directory: directory.New(s),
			Sched:     s,
			Refresh:   time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ds.Close)
		if err := m.dir.Register(directory.Advert{
			Name: name, Domain: fmt.Sprintf("dom%d", domain), Priority: priority,
			Epoch: uint64(ds.Epoch()), Prefixes: m.p.HostPrefixes(domain), Collector: ds.Collector(),
		}, ttl); err != nil {
			t.Fatal(err)
		}
	}
	lease(0, "dom0-a", 0, time.Second)
	lease(0, "dom0-b", 1, 10*time.Second)
	lease(1, "dom1-a", 0, 10*time.Second)

	flows := []modeler.Flow{{Src: tt.Hosts[0].Addr(), Dst: tt.Hosts[len(tt.Hosts)-1].Addr()}}
	dom0 := func() string {
		snap := m.router.Snapshot()
		var adverts []string
		for _, a := range snap.Domains[0].Adverts {
			adverts = append(adverts, a.Name)
		}
		return fmt.Sprintf("%s from %s via %v", snap.Domains[0].Domain, snap.Domains[0].CachedFrom, adverts)
	}
	checkFlowsMatchGroundTruth(t, m, flows)
	if got, want := dom0(), "dom0 from dom0-a via [dom0-a dom0-b]"; got != want {
		t.Fatalf("before the lapse: %s, want %s", got, want)
	}

	s.RunFor(1500 * time.Millisecond)
	checkFlowsMatchGroundTruth(t, m, flows)
	if got, want := dom0(), "dom0 from dom0-b via [dom0-b]"; got != want {
		t.Fatalf("after the primary's lease lapsed: %s, want %s", got, want)
	}
}
