package federation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"remos/internal/collector"
	"remos/internal/directory"
	"remos/internal/modeler"
	"remos/internal/netsim"
	"remos/internal/obs"
	"remos/internal/proto"
	"remos/internal/rerr"
	"remos/internal/sim"
	"remos/internal/topology"
)

// mesh is one in-process federated deployment: a fabric partitioned
// into k domains, each with a local master heartbeating into one shared
// directory (standing in for a converged replica), and a router over it.
type mesh struct {
	s       *sim.Sim
	n       *netsim.Network
	p       *netsim.Partition
	dir     *directory.Service
	router  *Router
	masters []*DomainServer
	hosts   []netip.Addr
	reg     *obs.Registry
	shape   string // what the mesh stands on, for failure messages
}

// newMesh partitions the fabric into k domains and puts a router over an
// empty directory; the caller starts the masters.
func newMesh(t *testing.T, n *netsim.Network, s *sim.Sim, k int) *mesh {
	t.Helper()
	p, err := netsim.PartitionDomains(n, k)
	if err != nil {
		t.Fatal(err)
	}
	m := &mesh{s: s, n: n, p: p, dir: directory.New(s), reg: obs.New(), shape: fmt.Sprintf("k=%d", k)}
	m.router, err = NewRouter(RouterConfig{Directory: m.dir, Obs: m.reg})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func buildMesh(t *testing.T, n *netsim.Network, s *sim.Sim, k int) *mesh {
	t.Helper()
	m := newMesh(t, n, s, k)
	p := m.p
	for i := 0; i < k; i++ {
		i := i
		ds, err := StartDomain(DomainConfig{
			Name:      fmt.Sprintf("dom%d-a", i),
			Domain:    fmt.Sprintf("dom%d", i),
			Graph:     func() (*topology.Graph, error) { return m.p.ServingGraph(i) },
			Prefixes:  p.HostPrefixes(i),
			Directory: m.dir,
			Sched:     s,
			Obs:       m.reg,
			Refresh:   time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ds.Close)
		m.masters = append(m.masters, ds)
		m.hosts = append(m.hosts, p.DomainHosts(i)...)
	}
	return m
}

// checkFlowsMatchGroundTruth asks the router for the flows and compares
// the answer — byte for byte, == on every field — against a single
// master's walk of the whole unpartitioned topology.
func checkFlowsMatchGroundTruth(t *testing.T, m *mesh, flows []modeler.Flow) {
	t.Helper()
	got, err := m.router.GetFlowsContext(context.Background(), flows, modeler.FlowOptions{})
	if err != nil {
		t.Fatalf("%s: federated flows: %v", m.shape, err)
	}
	want := groundTruth(t, m.n, flows)
	for i := range flows {
		if got[i].Available != want[i].Available ||
			got[i].Latency != want[i].Latency ||
			got[i].Jitter != want[i].Jitter ||
			!reflect.DeepEqual(got[i].Path, want[i].Path) {
			t.Fatalf("%s: flow %d (%v -> %v) diverges from single-master walk:\ngot  %v %v %v %v\nwant %v %v %v %v",
				m.shape, i, flows[i].Src, flows[i].Dst,
				got[i].Available, got[i].Latency, got[i].Jitter, got[i].Path,
				want[i].Available, want[i].Latency, want[i].Jitter, want[i].Path)
		}
	}
}

// groundTruth is a single master's walk of the whole unpartitioned
// topology for the flows.
func groundTruth(t *testing.T, n *netsim.Network, flows []modeler.Flow) []topology.FlowPrediction {
	t.Helper()
	truth, err := netsim.TopologyGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]topology.FlowRequest, len(flows))
	for i, f := range flows {
		reqs[i] = topology.FlowRequest{Src: f.Src.String(), Dst: f.Dst.String(), Demand: f.Demand}
	}
	want, err := truth.FlowAlloc(reqs)
	if err != nil {
		t.Fatalf("ground-truth walk: %v", err)
	}
	return want
}

// truthInfos is groundTruth as the answers a flow query gives: each
// flow's allocation, its prediction the current value.
func truthInfos(t *testing.T, n *netsim.Network, flows []modeler.Flow) []modeler.FlowInfo {
	t.Helper()
	out := make([]modeler.FlowInfo, len(flows))
	for i, p := range groundTruth(t, n, flows) {
		out[i] = modeler.FlowInfo{
			Flow: flows[i], Available: p.Available, Latency: p.Latency, Jitter: p.Jitter, Path: p.Path,
			Predicted: p.Available,
		}
	}
	return out
}

func TestStitchedFlowsMatchSingleMasterTwoTier(t *testing.T) {
	s := sim.NewSim()
	n := netsim.New(s)
	tt := netsim.BuildTwoTier(n, netsim.TwoTierSpec{Spines: 2, Leaves: 6, HostsPerLeaf: 3})
	m := buildMesh(t, n, s, 3)

	// Mixed traffic: intra-domain, cross-domain, and demand-limited.
	rnd := rand.New(rand.NewSource(7))
	var flows []modeler.Flow
	for i := 0; i < 24; i++ {
		a := tt.Hosts[rnd.Intn(len(tt.Hosts))].Addr()
		b := tt.Hosts[rnd.Intn(len(tt.Hosts))].Addr()
		if a == b {
			continue
		}
		var demand float64
		if i%3 == 0 {
			demand = float64(1+rnd.Intn(50)) * 1e6
		}
		flows = append(flows, modeler.Flow{Src: a, Dst: b, Demand: demand})
	}
	checkFlowsMatchGroundTruth(t, m, flows)
}

// fabricChecks is the quick configuration the random-fabric gates draw
// their seeds through: a fixed Rand keeps every run on one seed list,
// and the standard -quickchecks flag scales its length.
func fabricChecks(scale float64) *quick.Config {
	return &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCountScale: scale}
}

// randomMesh draws the seed's random fabric (netsim.RandomFabric),
// partitions it into 1 to one domain per router, so a transit domain
// can sit between two others, starts cross traffic from the first host
// to the last one it reaches, so the serving graphs carry non-zero load,
// and runs the clock until every master has refreshed at the same
// instant, the moment a deployment's schedulers would all have polled.
func randomMesh(t *testing.T, seed int64) *mesh {
	t.Helper()
	s := sim.NewSim()
	fab := netsim.RandomFabric(s, seed)
	m := buildMesh(t, fab.Net, s, 1+rand.New(rand.NewSource(seed^0x9a7)).Intn(len(fab.Routers)))
	m.shape = fab.Shape + ", " + m.shape
	src, dst := fab.Hosts[0], fab.Hosts[1]
	for _, h := range fab.Hosts[2:] {
		if _, err := fab.Net.Path(src, h); err == nil {
			dst = h
		}
	}
	if _, err := fab.Net.StartCrossTraffic(src, dst, netsim.CrossTrafficSpec{
		Mean: 5e6, Jitter: 0.5, Period: 500 * time.Millisecond, Seed: seed,
	}); err != nil {
		t.Fatalf("%s: %v", m.shape, err)
	}
	s.RunFor(3 * time.Second)
	return m
}

// checkNoRoute holds a pair the whole graph cannot route, failing with
// want, to the same typed failure on both federated faces: max-min on
// the graph QUERY returns, and FLOWS.
func checkNoRoute(t *testing.T, m *mesh, a, b netip.Addr, want error) {
	t.Helper()
	res, qerr := m.router.Collect(collector.Query{Hosts: []netip.Addr{a, b}})
	if qerr == nil {
		_, qerr = res.Graph.FlowAlloc([]topology.FlowRequest{{Src: a.String(), Dst: b.String()}})
	}
	_, ferr := m.router.GetFlowsContext(context.Background(), []modeler.Flow{{Src: a, Dst: b}}, modeler.FlowOptions{})
	if code := rerr.Code(want); code == "" || rerr.Code(qerr) != code || rerr.Code(ferr) != code {
		t.Fatalf("%s: %v -> %v: the whole graph fails %q (%v), QUERY %q (%v), FLOWS %q (%v)",
			m.shape, a, b, rerr.Code(want), want, rerr.Code(qerr), qerr, rerr.Code(ferr), ferr)
	}
}

// TestStitchedFlowsMatchSingleMasterRandom is the randomized stitching
// property test: over random fabrics, random partitions, and random
// flow sets — with cross traffic perturbing utilizations between rounds
// — the federated answer equals the single-master ground-truth walk
// exactly, and the stitched path index's bottleneck walk (max-min over
// the path's reduced capacities) matches the whole graph's. A pair the
// whole graph cannot route, across islands, fails alike on every face.
func TestStitchedFlowsMatchSingleMasterRandom(t *testing.T) {
	f := func(seed int64) bool {
		m := randomMesh(t, seed)
		rnd := rand.New(rand.NewSource(seed ^ 0xf10))
		truth, err := netsim.TopologyGraph(m.n)
		if err != nil {
			t.Fatal(err)
		}
		var flows []modeler.Flow
		for i := 0; i < 16; i++ {
			a := m.hosts[rnd.Intn(len(m.hosts))]
			b := m.hosts[rnd.Intn(len(m.hosts))]
			if a == b {
				continue
			}
			if _, err := truth.FlowAlloc([]topology.FlowRequest{{Src: a.String(), Dst: b.String()}}); err != nil {
				checkNoRoute(t, m, a, b, err)
				continue
			}
			flows = append(flows, modeler.Flow{Src: a, Dst: b})
		}
		if len(flows) == 0 {
			return true
		}
		checkFlowsMatchGroundTruth(t, m, flows)

		// A lone flow on the stitched index gets the bottleneck a lone
		// flow on the whole graph gets, over the same path.
		paths, err := m.router.stitchedPaths(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		lone := func(fa interface {
			FlowAlloc([]topology.FlowRequest) ([]topology.FlowPrediction, error)
		}, f modeler.Flow) (float64, []string, error) {
			preds, err := fa.FlowAlloc([]topology.FlowRequest{{Src: f.Src.String(), Dst: f.Dst.String()}})
			if err != nil {
				return 0, nil, err
			}
			return preds[0].Available, preds[0].Path, nil
		}
		for _, f := range flows[:1] {
			gotBW, gotPath, gotErr := lone(paths, f)
			wantBW, wantPath, wantErr := lone(truth, f)
			if (gotErr == nil) != (wantErr == nil) || gotBW != wantBW || !reflect.DeepEqual(gotPath, wantPath) {
				t.Fatalf("%s: bottleneck diverges: got %v %v %v, want %v %v %v",
					m.shape, gotBW, gotPath, gotErr, wantBW, wantPath, wantErr)
			}
		}
		return true
	}
	if err := quick.Check(f, fabricChecks(0.12)); err != nil {
		t.Fatal(err)
	}
}

// TestRouterCollectMatchesSingleMaster holds the QUERY face to the same
// truth as the FLOWS face: on random fabrics and partitions, for every
// ordered host pair, max-min on the graph Router.Collect returns for the
// pair equals max-min on the whole unpartitioned topology — rate, delay,
// jitter and path. A reply that leaves out a transit domain has no route
// between two domains that do not border each other, and fails here. A
// pair the whole topology cannot route, across islands, fails with the
// same typed error on QUERY and FLOWS.
func TestRouterCollectMatchesSingleMaster(t *testing.T) {
	pairs, unrouted := 0, 0
	f := func(seed int64) bool {
		m := randomMesh(t, seed)
		truth, err := netsim.TopologyGraph(m.n)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range m.hosts {
			for _, b := range m.hosts {
				if a == b {
					continue
				}
				pairs++
				req := []topology.FlowRequest{{Src: a.String(), Dst: b.String()}}
				want, err := truth.FlowAlloc(req)
				if err != nil {
					unrouted++
					checkNoRoute(t, m, a, b, err)
					continue
				}
				res, err := m.router.Collect(collector.Query{Hosts: []netip.Addr{a, b}})
				if err != nil {
					t.Fatalf("%s: collect %v -> %v: %v", m.shape, a, b, err)
				}
				got, err := res.Graph.FlowAlloc(req)
				if err != nil {
					t.Fatalf("%s: %v -> %v on the collected graph: %v", m.shape, a, b, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %v -> %v diverges from the single-master walk:\ngot  %+v\nwant %+v",
						m.shape, a, b, got, want)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, fabricChecks(0.6)); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d ordered host pairs agree, %d of them on having no route", pairs, unrouted)
}

// TestMovedHostLeavesTheServingGraph moves a host inside one domain and
// checks the federated answers follow it: a domain publishes the graph
// its source returns now, so the link the host left is gone from the
// next epoch, for FLOWS and for QUERY alike.
func TestMovedHostLeavesTheServingGraph(t *testing.T) {
	s := sim.NewSim()
	n := netsim.New(s)
	r := n.AddRouter("r")
	sw1, sw2 := n.AddSwitch("sw1"), n.AddSwitch("sw2")
	n.Connect(sw1, r, 1e9, time.Millisecond)
	n.Connect(sw2, r, 1e9, time.Millisecond)
	h, h1, h2 := n.AddHost("h"), n.AddHost("h1"), n.AddHost("h2")
	n.Connect(h, sw1, 100e6, time.Millisecond)
	n.Connect(h1, sw1, 100e6, time.Millisecond)
	n.Connect(h2, sw2, 100e6, time.Millisecond)
	n.AssignSubnets()
	n.ComputeRoutes()
	m := buildMesh(t, n, s, 1)
	flows := []modeler.Flow{{Src: h.Addr(), Dst: h1.Addr()}}
	checkFlowsMatchGroundTruth(t, m, flows)

	n.MoveHost(h, sw2, 10e6, time.Millisecond)
	s.RunFor(3 * time.Second)
	checkFlowsMatchGroundTruth(t, m, flows)
	res, err := m.router.Collect(collector.Query{Hosts: []netip.Addr{h.Addr(), h1.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	hid, swid := h.Addr().String(), sw1.ManagementAddr().String()
	for _, l := range res.Graph.Links() {
		if (l.From == hid && l.To == swid) || (l.From == swid && l.To == hid) {
			t.Fatalf("QUERY still attaches %s to sw1 after the move: %+v", hid, *l)
		}
	}
}

func TestEpochCacheInvalidation(t *testing.T) {
	s := sim.NewSim()
	n := netsim.New(s)
	tt := netsim.BuildTwoTier(n, netsim.TwoTierSpec{Spines: 2, Leaves: 4, HostsPerLeaf: 2})
	m := buildMesh(t, n, s, 2)
	flows := []modeler.Flow{{Src: tt.Hosts[0].Addr(), Dst: tt.Hosts[len(tt.Hosts)-1].Addr()}}

	checkFlowsMatchGroundTruth(t, m, flows)
	fetches := m.router.mFetches.Value()
	stitches := m.router.mStitches.Value()
	trees := m.router.paths.TreeBuilds()

	// Same epochs: the repeat query is answered entirely from cache.
	checkFlowsMatchGroundTruth(t, m, flows)
	if got := m.router.mFetches.Value(); got != fetches {
		t.Fatalf("repeat query fetched %d domains, want 0", got-fetches)
	}
	if got := m.router.mStitches.Value(); got != stitches {
		t.Fatalf("repeat query rebuilt the stitched graph")
	}
	if m.router.mCacheHits.Value() == 0 {
		t.Fatal("no cache hits recorded")
	}

	// Heartbeats advance every domain's epoch: the next query must
	// re-fetch and re-stitch.
	s.RunFor(time.Second)
	checkFlowsMatchGroundTruth(t, m, flows)
	if got := m.router.mFetches.Value(); got == fetches {
		t.Fatal("epoch moved but no re-fetch happened")
	}
	if got := m.router.mStitches.Value(); got == stitches {
		t.Fatal("epoch moved but the stitched graph was not rebuilt")
	}
	// The masters re-polled an unchanged fabric: the re-stitched graph
	// routes as the last one did and keeps its path trees.
	if got := m.router.paths.TreeBuilds(); got != trees || trees == 0 {
		t.Fatalf("a metrics-only re-stitch rebuilt path trees: %d builds, had %d", got, trees)
	}
}

// TestFailoverToSecondaryOnLeaseExpiry kills a domain's primary master
// and lets its lease lapse: queries keep answering exactly, now from
// the surviving secondary, with no non-typed error in between.
func TestFailoverToSecondaryOnLeaseExpiry(t *testing.T) {
	s := sim.NewSim()
	n := netsim.New(s)
	tt := netsim.BuildTwoTier(n, netsim.TwoTierSpec{Spines: 2, Leaves: 4, HostsPerLeaf: 2})
	m := buildMesh(t, n, s, 2)

	// A secondary for domain 0, lower preference.
	sec, err := StartDomain(DomainConfig{
		Name:      "dom0-b",
		Domain:    "dom0",
		Priority:  1,
		Graph:     func() (*topology.Graph, error) { return m.p.ServingGraph(0) },
		Prefixes:  m.p.HostPrefixes(0),
		Directory: m.dir,
		Sched:     s,
		Obs:       m.reg,
		Refresh:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sec.Close()

	flows := []modeler.Flow{{Src: tt.Hosts[0].Addr(), Dst: tt.Hosts[len(tt.Hosts)-1].Addr()}}
	checkFlowsMatchGroundTruth(t, m, flows)

	// Crash the primary: heartbeat stops, lease left to lapse (TTL is
	// 3×Refresh = 3s).
	m.masters[0].Kill()
	s.RunFor(4 * time.Second)
	if doms := m.dir.View().Domains; len(doms) == 0 || doms[0].Name != "dom0" ||
		len(doms[0].Adverts) != 1 || doms[0].Adverts[0].Name != "dom0-b" {
		t.Fatalf("domain 0 after the primary's lease lapsed: %+v", doms)
	}
	checkFlowsMatchGroundTruth(t, m, flows)
	snap := m.router.Snapshot()
	var dom0 *DomainSnapshot
	for i := range snap.Domains {
		if snap.Domains[i].Domain == "dom0" {
			dom0 = &snap.Domains[i]
		}
	}
	if dom0 == nil || dom0.CachedFrom != "dom0-b" {
		t.Fatalf("domain 0 not served by the secondary after lease expiry: %+v", dom0)
	}
}

// startWireMaster starts a domain master reachable only over sockets — a
// private directory it heartbeats into, a replicator pushing that lease
// to the router's directory server at peer, a wire server in front of
// its collector — and returns its crash: heartbeat, replication and wire
// server stop at once, and the lease is left to lapse.
func startWireMaster(t *testing.T, m *mesh, peer string, domain, priority int) (crash func()) {
	t.Helper()
	gate := &gatedCollector{}
	srv := &proto.TCPServer{Collector: gate}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	mdir := directory.New(m.s)
	ds, err := StartDomain(DomainConfig{
		Name:      fmt.Sprintf("dom%d-%c", domain, 'a'+priority),
		Domain:    fmt.Sprintf("dom%d", domain),
		Priority:  priority,
		Endpoint:  "tcp://" + addr,
		Graph:     func() (*topology.Graph, error) { return m.p.ServingGraph(domain) },
		Prefixes:  m.p.HostPrefixes(domain),
		Directory: mdir,
		Sched:     m.s,
		Refresh:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ds.Close)
	gate.inner = ds.Collector()
	rep := directory.StartReplicator(directory.ReplicatorConfig{
		Service: mdir, Peers: []string{peer}, Sched: m.s, Interval: time.Second,
	})
	t.Cleanup(rep.Close)
	rep.Push()
	return func() {
		ds.Kill()
		rep.Close()
		gate.dead.Store(true)
		srv.Close()
	}
}

// TestKillFailoverOverSockets is TestFailoverToSecondaryOnLeaseExpiry
// with what the in-process half leaves out: masters behind wire servers
// with replicated leases, the router behind its own server with the
// default fan-out, and concurrent clients querying throughout — while
// epochs move, while the primary dies without deregistering, and while
// its lease lapses. Every answer equals the single-master walk, every
// error is typed, and domain 0 ends up served by the standby.
func TestKillFailoverOverSockets(t *testing.T) {
	s := sim.NewSim()
	n := netsim.New(s)
	tt := netsim.BuildTwoTier(n, netsim.TwoTierSpec{Spines: 2, Leaves: 4, HostsPerLeaf: 2})
	m := newMesh(t, n, s, 2)
	dirSrv := &directory.Server{Service: m.dir}
	peer, err := dirSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dirSrv.Close()
	crashPrimary := startWireMaster(t, m, peer, 0, 0)
	startWireMaster(t, m, peer, 1, 0)
	startWireMaster(t, m, peer, 0, 1)
	routerSrv := &proto.TCPServer{Collector: m.router, Flows: m.router}
	routerAddr, err := routerSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer routerSrv.Close()

	// Every ordered host pair, intra- and cross-domain, each asked alone;
	// the fabric is idle, so one walk per pair is the truth for the run.
	var flows []modeler.Flow
	var want [][]modeler.FlowInfo
	for _, a := range tt.Hosts {
		for _, b := range tt.Hosts {
			if a != b {
				f := []modeler.Flow{{Src: a.Addr(), Dst: b.Addr()}}
				flows = append(flows, f[0])
				want = append(want, truthInfos(t, n, f))
			}
		}
	}

	// hammer keeps four wire clients querying the router for as long as
	// during runs, and for at least a lap of the mix each.
	hammer := func(during func()) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := &proto.TCPClient{Addr: routerAddr}
				defer cl.Close()
				for i := 0; ; i++ {
					if i >= len(flows) {
						select {
						case <-stop:
							return
						default:
						}
					}
					k := (c*len(flows)/4 + i) % len(flows)
					got, err := cl.Flows(context.Background(), flows[k:k+1])
					if err != nil && rerr.Code(err) == "" {
						t.Errorf("client %d query %d: untyped error: %v", c, i, err)
						return
					}
					if err == nil && !reflect.DeepEqual(got, want[k]) {
						t.Errorf("client %d query %d diverges from single-master walk:\ngot  %+v\nwant %+v", c, i, got, want[k])
						return
					}
				}
			}(c)
		}
		during()
		close(stop)
		wg.Wait()
	}

	// Heartbeats move every epoch: re-fetch and re-stitch under load.
	hammer(func() { s.RunFor(2 * time.Second) })
	// With no query running, the primary heartbeats an epoch nobody has
	// fetched, and then dies. Its lease still stands, so the next fetch
	// of domain 0 walks the adverts in priority order: the primary
	// refuses, the standby answers.
	s.RunFor(time.Second)
	crashPrimary()
	hammer(func() {
		cl := &proto.TCPClient{Addr: routerAddr}
		defer cl.Close()
		if _, err := cl.Collect(collector.Query{Hosts: m.p.DomainHosts(0)[:1]}); err != nil {
			t.Errorf("host query with the primary down: %v", err)
		}
	})
	if m.router.mFailovers.Value() == 0 {
		t.Fatal("primary kill produced no failover")
	}
	// The lease (3×Refresh) lapses; the standby becomes the best advert.
	hammer(func() { s.RunFor(4 * time.Second) })
	hammer(func() {})
	if dom := m.router.Snapshot().Domains[0]; dom.Domain != "dom0" || dom.CachedFrom != "dom0-b" || dom.Stale || len(dom.Adverts) != 1 {
		t.Fatalf("domain 0 not settled on the standby after lease expiry: %+v", dom)
	}
}

// TestStaleServeWhenAllMastersUnreachable covers the last-resort step:
// the domain's only master is reachable over the wire, caches an
// answer, then crashes with its lease still live. Queries inside that
// window serve the stale cached graph — and never a non-typed error.
func TestStaleServeWhenAllMastersUnreachable(t *testing.T) {
	s := sim.NewSim()
	n := netsim.New(s)
	tt := netsim.BuildTwoTier(n, netsim.TwoTierSpec{Spines: 2, Leaves: 4, HostsPerLeaf: 2})
	p, err := netsim.PartitionDomains(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := directory.New(s)
	reg := obs.New()

	// Domain 0 is remote: its master serves over a real TCP socket and
	// registers endpoint-form, so crashing is closing the listener.
	d0, err := StartDomain(DomainConfig{
		Name:   "dom0-a",
		Domain: "dom0",
		Graph:  func() (*topology.Graph, error) { return p.ServingGraph(0) },
		// Registered below with the endpoint; keep it out of the local
		// directory so resolution must go through the wire.
		Prefixes:  p.HostPrefixes(0),
		Directory: directory.New(s), Sched: s, Obs: reg, Refresh: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d0.Close()
	gate := &gatedCollector{inner: d0.Collector()}
	srv := &proto.TCPServer{Collector: gate}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Register(directory.Advert{
		Name: "dom0-a", Domain: "dom0", Endpoint: "tcp://" + addr,
		Prefixes: p.HostPrefixes(0),
	}, time.Hour); err != nil {
		t.Fatal(err)
	}

	// Domain 1 is local.
	d1, err := StartDomain(DomainConfig{
		Name: "dom1-a", Domain: "dom1",
		Graph:     func() (*topology.Graph, error) { return p.ServingGraph(1) },
		Prefixes:  p.HostPrefixes(1),
		Directory: dir, Sched: s, Obs: reg, Refresh: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d1.Close()

	router, err := NewRouter(RouterConfig{Directory: dir, Obs: reg, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	m := &mesh{s: s, n: n, p: p, dir: dir, router: router, reg: reg}
	flows := []modeler.Flow{{Src: tt.Hosts[0].Addr(), Dst: tt.Hosts[len(tt.Hosts)-1].Addr()}}
	checkFlowsMatchGroundTruth(t, m, flows)

	// Crash the remote master with its lease still live, and let a
	// replicated heartbeat (sent before the crash) move the advertised
	// epoch on — the cache is now invalid AND the master unreachable.
	gate.dead.Store(true)
	srv.Close()
	if err := dir.Register(directory.Advert{
		Name: "dom0-a", Domain: "dom0", Endpoint: "tcp://" + addr,
		Prefixes: p.HostPrefixes(0), Epoch: d0.Epoch() + 1,
	}, time.Hour); err != nil {
		t.Fatal(err)
	}
	got, err := router.GetFlowsContext(context.Background(), flows, modeler.FlowOptions{})
	if err != nil {
		t.Fatalf("stale window query failed: %v", err)
	}
	if len(got) != 1 || got[0].Available <= 0 {
		t.Fatalf("stale window answer: %+v", got)
	}
	if router.mStale.Value() == 0 {
		t.Fatal("no stale serve recorded")
	}
	if !router.Snapshot().Domains[0].Stale {
		t.Fatal("snapshot does not mark dom0 stale")
	}
}

// gatedCollector refuses every query once dead is set — a master whose
// process is gone while its listener's pooled connections linger.
type gatedCollector struct {
	inner collector.Interface
	dead  atomic.Bool
}

func (g *gatedCollector) Name() string { return g.inner.Name() }
func (g *gatedCollector) Collect(q collector.Query) (*collector.Result, error) {
	if g.dead.Load() {
		return nil, rerr.Tagf(rerr.ErrCollectorUnavailable, "master crashed")
	}
	return g.inner.Collect(q)
}

// TestRouterCollectFanOut pins the collector face: a host query is
// answered from the stitched graph of every domain — on a two-tier
// fabric, and on a chain of three domains whose ends do not border each
// other, where the route crosses the middle domain — and unknown hosts
// are refused with the typed no-responsible-collector error (distinct
// from domain-unreachable).
func TestRouterCollectFanOut(t *testing.T) {
	for _, tc := range []struct {
		name  string
		k     int
		build func(n *netsim.Network) []*netsim.Device
	}{
		{"two-tier", 2, func(n *netsim.Network) []*netsim.Device {
			return netsim.BuildTwoTier(n, netsim.TwoTierSpec{Spines: 2, Leaves: 4, HostsPerLeaf: 2}).Hosts
		}},
		// Five routers in a line, three domains: the middle domain owns
		// r1-r2, so only its graph joins the ends.
		{"chain of three", 3, func(n *netsim.Network) []*netsim.Device {
			var hosts []*netsim.Device
			var prev *netsim.Device
			for i := 0; i < 5; i++ {
				r, sw := n.AddRouter(fmt.Sprintf("r%d", i)), n.AddSwitch(fmt.Sprintf("sw%d", i))
				if prev != nil {
					n.Connect(prev, r, 1e9, time.Millisecond)
				}
				prev = r
				n.Connect(sw, r, 1e9, time.Millisecond)
				for j := 0; j < 2; j++ {
					h := n.AddHost(fmt.Sprintf("h%d-%d", i, j))
					n.Connect(h, sw, 100e6, time.Millisecond)
					hosts = append(hosts, h)
				}
			}
			n.AssignSubnets()
			n.ComputeRoutes()
			return hosts
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.NewSim()
			n := netsim.New(s)
			hosts := tc.build(n)
			m := buildMesh(t, n, s, tc.k)

			// The first host, and the last host outside its domain; on
			// the chain, the two domains are ones no border link joins.
			a, b := hosts[0], hosts[0]
			for _, h := range hosts {
				if m.p.DomainOf(h) != m.p.DomainOf(a) {
					b = h
				}
			}
			da, db := m.p.DomainOf(a), m.p.DomainOf(b)
			if da == db {
				t.Fatal("partition put every host in one domain")
			}
			adjacent := false
			for _, l := range m.p.Borders {
				x, y := m.p.DomainOf(l.A.Dev), m.p.DomainOf(l.B.Dev)
				adjacent = adjacent || (x == da && y == db) || (x == db && y == da)
			}
			if tc.k == 3 && adjacent {
				t.Fatal("the chain's end domains border each other")
			}
			src, dst := a.Addr(), b.Addr()
			res, err := m.router.Collect(collector.Query{Hosts: []netip.Addr{src, dst}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Graph.NodeByAddr(src.String()) == nil || res.Graph.NodeByAddr(dst.String()) == nil {
				t.Fatal("cross-domain answer missing an endpoint")
			}
			got, err := res.Graph.FlowAlloc([]topology.FlowRequest{{Src: src.String(), Dst: dst.String()}})
			if err != nil {
				t.Fatalf("no cross-domain route in the answer: %v", err)
			}
			want := groundTruth(t, n, []modeler.Flow{{Src: src, Dst: dst}})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cross-domain route diverges from the single-master walk:\ngot  %+v\nwant %+v", got, want)
			}

			_, err = m.router.Collect(collector.Query{Hosts: []netip.Addr{src, netip.MustParseAddr("192.0.2.1")}})
			if !errors.Is(err, rerr.ErrUnknownHost) {
				t.Fatalf("unknown host error = %v, want ErrUnknownHost", err)
			}
			if errors.Is(err, rerr.ErrCollectorUnavailable) {
				t.Fatal("unknown host conflated with domain-unreachable")
			}
		})
	}
}

// TestDomainUnreachableIsTyped pins the other side of that distinction:
// a host whose domain is advertised but whose masters cannot be reached
// (and no cache exists) fails with ErrCollectorUnavailable, not
// ErrNoRoute or a bare error.
func TestDomainUnreachableIsTyped(t *testing.T) {
	s := sim.NewSim()
	dir := directory.New(s)
	if err := dir.Register(directory.Advert{
		Name: "ghost-a", Domain: "ghost",
		Endpoint: "tcp://127.0.0.1:1", // nothing listens here
		Prefixes: []netip.Prefix{netip.MustParsePrefix("10.9.0.0/16")},
	}, time.Hour); err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(RouterConfig{Directory: dir, Timeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = router.GetFlowsContext(context.Background(),
		[]modeler.Flow{{Src: netip.MustParseAddr("10.9.0.1"), Dst: netip.MustParseAddr("10.9.0.2")}},
		modeler.FlowOptions{})
	if !errors.Is(err, rerr.ErrCollectorUnavailable) {
		t.Fatalf("unreachable domain error = %v, want ErrCollectorUnavailable", err)
	}
	if errors.Is(err, rerr.ErrNoRoute) {
		t.Fatal("domain-unreachable conflated with no-route")
	}
}
