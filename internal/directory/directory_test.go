package directory

import (
	"net/netip"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/collector/master"
	"remos/internal/proto"
	"remos/internal/sim"
	"remos/internal/topology"
)

// fakeColl answers with a single-node graph and records queries.
type fakeColl struct {
	name string
	hits int
}

func (f *fakeColl) Name() string { return f.name }
func (f *fakeColl) Collect(q collector.Query) (*collector.Result, error) {
	f.hits++
	g := topology.NewGraph()
	for _, h := range q.Hosts {
		g.AddNode(topology.Node{ID: h.String(), Kind: topology.HostNode, Addr: h.String()})
	}
	return &collector.Result{Graph: g}, nil
}

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func adr(s string) netip.Addr   { return netip.MustParseAddr(s) }

// lookup is the address's best advert: LookupAll's first.
func lookup(s *Service, h netip.Addr) (Advert, bool) {
	all := s.LookupAll(h)
	if len(all) == 0 {
		return Advert{}, false
	}
	return all[0], true
}

func TestRegisterLookupExpire(t *testing.T) {
	s := sim.NewSim()
	d := New(s)
	fc := &fakeColl{name: "siteA"}
	if err := d.Register(Advert{
		Name: "siteA", Prefixes: []netip.Prefix{pfx("10.1.0.0/16")}, Collector: fc,
	}, time.Hour); err != nil {
		t.Fatal(err)
	}
	a, ok := lookup(d, adr("10.1.2.3"))
	if !ok || a.Name != "siteA" {
		t.Fatalf("Lookup = %+v ok=%v", a, ok)
	}
	if _, ok := lookup(d, adr("10.2.0.1")); ok {
		t.Fatal("out-of-scope address resolved")
	}
	// Advance past the TTL: the advert ages out, as SLP registrations do.
	s.RunFor(2 * time.Hour)
	if _, ok := lookup(d, adr("10.1.2.3")); ok {
		t.Fatal("expired advert still resolves")
	}
	if len(d.Adverts()) != 0 {
		t.Fatal("expired advert still listed")
	}
}

func TestReregisterRefreshesTTL(t *testing.T) {
	s := sim.NewSim()
	d := New(s)
	fc := &fakeColl{name: "siteA"}
	ad := Advert{Name: "siteA", Prefixes: []netip.Prefix{pfx("10.1.0.0/16")}, Collector: fc}
	d.Register(ad, time.Hour)
	s.RunFor(50 * time.Minute)
	d.Register(ad, time.Hour) // refresh
	s.RunFor(50 * time.Minute)
	if _, ok := lookup(d, adr("10.1.0.1")); !ok {
		t.Fatal("refreshed advert expired")
	}
}

func TestRegisterValidation(t *testing.T) {
	d := New(sim.NewSim())
	if err := d.Register(Advert{Prefixes: []netip.Prefix{pfx("10.0.0.0/8")}, Collector: &fakeColl{}}, 0); err == nil {
		t.Fatal("nameless advert accepted")
	}
	if err := d.Register(Advert{Name: "x", Prefixes: []netip.Prefix{pfx("10.0.0.0/8")}}, 0); err == nil {
		t.Fatal("advert with no collector and no endpoint accepted")
	}
}

func TestLongestPrefixLookup(t *testing.T) {
	d := New(sim.NewSim())
	broad := &fakeColl{name: "broad"}
	narrow := &fakeColl{name: "narrow"}
	d.Register(Advert{Name: "broad", Prefixes: []netip.Prefix{pfx("10.0.0.0/8")}, Collector: broad}, 0)
	d.Register(Advert{Name: "narrow", Prefixes: []netip.Prefix{pfx("10.1.2.0/24")}, Collector: narrow}, 0)
	a, ok := lookup(d, adr("10.1.2.9"))
	if !ok || a.Name != "narrow" {
		t.Fatalf("longest prefix did not win: %+v", a)
	}
}

func TestResolveEndpoints(t *testing.T) {
	d := New(sim.NewSim())
	tcp, err := d.Resolve(Advert{Name: "a", Endpoint: "tcp://127.0.0.1:9999"})
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := d.Resolve(Advert{Name: "a", Endpoint: "tcp://127.0.0.1:9999"}); again != tcp {
		t.Fatal("a second resolve of the same advert built a second client")
	}
	if _, err := d.Resolve(Advert{Name: "a", Endpoint: "http://127.0.0.1:9999"}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Resolve(Advert{Name: "a", Endpoint: "gopher://x"}); err == nil {
		t.Fatal("unknown scheme resolved")
	}
}

func TestMasterUsesDirectoryDynamically(t *testing.T) {
	s := sim.NewSim()
	d := New(s)
	siteA := &fakeColl{name: "siteA"}
	d.Register(Advert{Name: "a", Prefixes: []netip.Prefix{pfx("10.1.0.0/16")}, Collector: siteA}, time.Hour)

	m := master.New(master.Config{Name: "m", Directory: d})
	if _, err := m.Collect(collector.Query{Hosts: []netip.Addr{adr("10.1.0.5")}}); err != nil {
		t.Fatal(err)
	}
	if siteA.hits != 1 {
		t.Fatalf("siteA hits = %d", siteA.hits)
	}
	// A site registered after the master was built is picked up on the
	// next query — no reconfiguration.
	siteB := &fakeColl{name: "siteB"}
	d.Register(Advert{Name: "b", Prefixes: []netip.Prefix{pfx("10.2.0.0/16")}, Collector: siteB}, time.Hour)
	if _, err := m.Collect(collector.Query{Hosts: []netip.Addr{adr("10.2.0.5")}}); err != nil {
		t.Fatal(err)
	}
	if siteB.hits != 1 {
		t.Fatalf("siteB hits = %d", siteB.hits)
	}
	// And expiry makes its hosts unroutable again.
	s.RunFor(2 * time.Hour)
	if _, err := m.Collect(collector.Query{Hosts: []netip.Addr{adr("10.1.0.5")}}); err == nil {
		t.Fatal("expired site still routable through master")
	}
}

func TestDirectoryOverRemoteEndpoint(t *testing.T) {
	// A collector served over the ASCII protocol, advertised by
	// endpoint only: the directory resolves it to a protocol client and
	// caches the client across queries.
	s := sim.NewSim()
	d := New(s)
	fc := &fakeColl{name: "remote"}
	srv := &proto.TCPServer{Collector: fc}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d.Register(Advert{
		Name: "remote", Prefixes: []netip.Prefix{pfx("10.9.0.0/16")},
		Endpoint: "tcp://" + addr,
	}, time.Hour)

	m := master.New(master.Config{Name: "m", Directory: d})
	for i := 0; i < 3; i++ {
		if _, err := m.Collect(collector.Query{Hosts: []netip.Addr{adr("10.9.1.1")}}); err != nil {
			t.Fatal(err)
		}
	}
	if fc.hits != 3 {
		t.Fatalf("remote collector hits = %d, want 3", fc.hits)
	}
}
