package federation

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/directory"
	"remos/internal/modeler"
	"remos/internal/netsim"
	"remos/internal/proto"
	"remos/internal/rerr"
	"remos/internal/sim"
	"remos/internal/topology"
)

// lease starts a master for the domain that heartbeats into a private
// directory once an hour, and registers it in the router's directory once,
// for ttl: the router hears of it only through that one registration.
func (m *mesh) lease(t *testing.T, domain int, name string, priority int, ttl time.Duration) {
	t.Helper()
	ds, err := StartDomain(DomainConfig{
		Name:      name,
		Domain:    fmt.Sprintf("dom%d", domain),
		Graph:     func() (*topology.Graph, error) { return m.p.ServingGraph(domain) },
		Prefixes:  m.p.HostPrefixes(domain),
		Directory: directory.New(m.s),
		Sched:     m.s,
		Refresh:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ds.Close)
	if err := m.dir.Register(directory.Advert{
		Name: name, Domain: fmt.Sprintf("dom%d", domain), Priority: priority,
		Epoch: ds.Epoch(), Prefixes: m.p.HostPrefixes(domain), Collector: ds.Collector(),
	}, ttl); err != nil {
		t.Fatal(err)
	}
}

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
	m.lease(t, 0, "dom0-a", 0, time.Second)
	m.lease(t, 0, "dom0-b", 1, 10*time.Second)
	m.lease(t, 1, "dom1-a", 0, 10*time.Second)

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

// TestLapsedDomainFlowIsUnknownHost: once the last lease of a domain
// lapses, a flow into it fails with ErrUnknownHost — from the router in
// process, over the ASCII FLOWS verb and over POST /flows — exactly as a
// host no domain ever advertised does, and so does a topology query for
// the same hosts, in process and over both QUERY verbs.
func TestLapsedDomainFlowIsUnknownHost(t *testing.T) {
	s := sim.NewSim()
	n := netsim.New(s)
	netsim.BuildTwoTier(n, netsim.TwoTierSpec{Spines: 2, Leaves: 4, HostsPerLeaf: 2})
	m := newMesh(t, n, s, 2)
	m.lease(t, 0, "dom0-a", 0, time.Second)
	m.lease(t, 1, "dom1-a", 0, time.Hour)
	flows := []modeler.Flow{{Src: m.p.DomainHosts(1)[0], Dst: m.p.DomainHosts(0)[0]}}
	query := collector.Query{Hosts: []netip.Addr{flows[0].Src, flows[0].Dst}}
	checkFlowsMatchGroundTruth(t, m, flows)
	if _, err := m.router.Collect(query); err != nil {
		t.Fatalf("QUERY before the lapse: %v", err)
	}

	tsrv := &proto.TCPServer{Collector: m.router, Flows: m.router}
	taddr, err := tsrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tsrv.Close()
	tcl := &proto.TCPClient{Addr: taddr}
	defer tcl.Close()
	hsrv := &proto.HTTPServer{Collector: m.router, Flows: m.router}
	haddr, err := hsrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hsrv.Close()
	hcl := &proto.HTTPClient{BaseURL: "http://" + haddr}

	s.RunFor(2 * time.Second)
	for name, ask := range map[string]func() error{
		"router": func() error {
			_, err := m.router.GetFlowsContext(context.Background(), flows, modeler.FlowOptions{})
			return err
		},
		"ASCII":        func() error { _, err := tcl.Flows(context.Background(), flows); return err },
		"HTTP":         func() error { _, err := hcl.Flows(context.Background(), flows); return err },
		"router QUERY": func() error { _, err := m.router.Collect(query); return err },
		"ASCII QUERY":  func() error { _, err := tcl.Collect(query); return err },
		"HTTP QUERY":   func() error { _, err := hcl.Collect(query); return err },
	} {
		if err := ask(); !errors.Is(err, rerr.ErrUnknownHost) {
			t.Errorf("%s: a flow into the lapsed domain fails with %v (code %q), want ErrUnknownHost",
				name, err, rerr.Code(err))
		}
	}
}
