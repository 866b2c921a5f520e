// Benchmarks for the concurrent collector pipeline: master fan-out
// serial vs. parallel on a multi-site topology. The fan-out pair uses a
// transport that really sleeps a small per-request latency, so the
// wall-clock numbers reflect what parallelism buys on a management plane
// with non-zero round-trip times (the regime the paper's collectors live
// in). The warm-query cache in front of that fan-out is measured by
// bench/'s warm_* workloads and qcache's own contention benchmark.
package remos_test

import (
	"fmt"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/collector/benchcoll"
	"remos/internal/collector/bridgecoll"
	"remos/internal/collector/master"
	"remos/internal/collector/snmpcoll"
	"remos/internal/mib"
	"remos/internal/netsim"
	"remos/internal/obs"
	"remos/internal/sim"
	"remos/internal/snmp"
	"remos/internal/topology"
	"remos/internal/watch"
)

// staticEntries is a fixed master directory.
type staticEntries []master.Entry

func (e staticEntries) Entries() ([]master.Entry, error) { return e, nil }

// sleepTransport wraps a transport with a real (wall-clock) per-request
// delay, modeling management-plane RTT that the in-process transport only
// reports but never pays.
type sleepTransport struct {
	inner snmp.Transport
	delay time.Duration
}

func (t *sleepTransport) RoundTrip(addr string, req []byte) ([]byte, time.Duration, error) {
	if t.delay > 0 {
		time.Sleep(t.delay)
	}
	return t.inner.RoundTrip(addr, req)
}

// multiSiteRig is a hand-built 4-site deployment: per site one router,
// one switch, one benchmark host and three application hosts, all routers
// meeting at a backbone hub.
type multiSiteRig struct {
	sites  []*snmpcoll.Collector
	master *master.Master
	query  collector.Query
}

func newMultiSiteRig(b testing.TB, nSites, parallelism int, delay time.Duration) *multiSiteRig {
	b.Helper()
	s := sim.NewSim()
	n := netsim.New(s)
	hub := n.AddRouter("hub")

	type sitedevs struct {
		sw, bench *netsim.Device
		apps      []*netsim.Device
	}
	devs := make([]sitedevs, nSites)
	for i := 0; i < nSites; i++ {
		r := n.AddRouter(fmt.Sprintf("r%d", i))
		sw := n.AddSwitch(fmt.Sprintf("sw%d", i))
		bench := n.AddHost(fmt.Sprintf("bench%d", i))
		n.Connect(r, hub, 1e9, 10*time.Millisecond)
		n.Connect(sw, r, 1e9, time.Millisecond)
		n.Connect(bench, sw, 100e6, time.Millisecond)
		ds := sitedevs{sw: sw, bench: bench}
		for h := 0; h < 3; h++ {
			app := n.AddHost(fmt.Sprintf("app%d-%d", i, h))
			n.Connect(app, sw, 100e6, time.Millisecond)
			ds.apps = append(ds.apps, app)
		}
		devs[i] = ds
	}
	n.AssignSubnets()
	n.ComputeRoutes()

	reg := snmp.NewRegistry()
	mib.AttachAll(n, reg)
	tr := &sleepTransport{inner: &snmp.InProc{Registry: reg}, delay: delay}

	rig := &multiSiteRig{}
	var entries []master.Entry
	for i := 0; i < nSites; i++ {
		ds := devs[i]
		bc := bridgecoll.New(bridgecoll.Config{
			Client:      snmp.NewClient(tr, "public"),
			Sched:       s,
			Switches:    []netip.Addr{ds.sw.ManagementAddr()},
			Parallelism: parallelism,
		})
		if err := bc.Start(); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(bc.Stop)
		sc := snmpcoll.New(snmpcoll.Config{
			Name:      fmt.Sprintf("snmp-%d", i),
			Transport: tr,
			Community: "public",
			Sched:     s,
			GatewayOf: func(h netip.Addr) (netip.Addr, bool) {
				dev := n.DeviceByIP(h)
				if dev == nil || !dev.Gateway.IsValid() {
					return netip.Addr{}, false
				}
				return dev.Gateway, true
			},
			ResolveMAC: func(ip netip.Addr) (collector.MAC, bool) {
				ifc := n.IfaceByIP(ip)
				if ifc == nil {
					return collector.MAC{}, false
				}
				return collector.MAC(ifc.MAC), true
			},
			Bridge:      bc,
			Parallelism: parallelism,
		})
		b.Cleanup(sc.Stop)
		rig.sites = append(rig.sites, sc)
		pfx := n.IfaceByIP(ds.apps[0].Addr()).Prefix
		entries = append(entries, master.Entry{
			Name:      fmt.Sprintf("site%d", i),
			Prefixes:  []netip.Prefix{pfx},
			Collector: sc,
			BenchHost: ds.bench.Addr(),
		})
		rig.query.Hosts = append(rig.query.Hosts, ds.apps[0].Addr(), ds.apps[1].Addr())
	}

	// Wide-area benchmark collector at site 0, peered with every other
	// site's bench host, measured once so warm queries answer instantly.
	var peers []benchcoll.Peer
	for i := 1; i < nSites; i++ {
		peers = append(peers, benchcoll.Peer{
			Name: fmt.Sprintf("site%d", i),
			Host: devs[i].bench.Addr(),
		})
	}
	wide := benchcoll.New(benchcoll.Config{
		LocalName: "site0",
		LocalHost: devs[0].bench.Addr(),
		Peers:     peers,
		Prober:    &benchcoll.NetsimProber{Net: n},
		Sched:     s,
	})
	b.Cleanup(wide.Stop)
	if err := wide.MeasureAll(); err != nil {
		b.Fatal(err)
	}

	rig.master = master.New(master.Config{
		Name:        "master-bench",
		Directory:   staticEntries(entries),
		WideArea:    wide,
		Parallelism: parallelism,
	})
	return rig
}

func (r *multiSiteRig) dropCaches() {
	for _, sc := range r.sites {
		sc.DropCaches()
	}
}

// benchMasterFanout measures cold multi-site queries: every iteration
// drops the SNMP collectors' caches so the fan-out re-walks all sites.
func benchMasterFanout(b *testing.B, parallelism int) {
	rig := newMultiSiteRig(b, 4, parallelism, 25*time.Microsecond)
	if _, err := rig.master.Collect(rig.query); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.dropCaches()
		if _, err := rig.master.Collect(rig.query); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMasterFanoutSerial(b *testing.B) { benchMasterFanout(b, 1) }

// The parallel variant pins an explicit width rather than the GOMAXPROCS
// default: the fan-out hides management-plane latency, which pays off
// even on a single-core box where GOMAXPROCS would select 1.
func BenchmarkMasterFanoutParallel(b *testing.B) { benchMasterFanout(b, 8) }

// TestMasterFanoutRigDeterminism pins the benchmark rig itself: the
// serial and parallel masters over identical 4-site topologies produce
// byte-identical merged answers.
func TestMasterFanoutRigDeterminism(t *testing.T) {
	encode := func(parallelism int) string {
		rig := newMultiSiteRig(t, 4, parallelism, 0)
		res, err := rig.master.Collect(rig.query)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := res.Graph.EncodeText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	serial, parallel := encode(1), encode(0)
	if serial != parallel {
		t.Fatalf("serial and parallel merges diverged:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	// Every queried host (two per site) must appear in the merged graph.
	rig := newMultiSiteRig(t, 4, 1, 0)
	for _, h := range rig.query.Hosts {
		if !strings.Contains(serial, "NODE "+h.String()) {
			t.Fatalf("merged graph misses host %s:\n%s", h, serial)
		}
	}
}

// --- Contention benchmarks ------------------------------------------
//
// The serving-path structures (watch registry, metrics histograms) are
// shared by every connection goroutine. These benchmarks
// drive them from GOMAXPROCS-many goroutines; run with -cpu 1,4,8 to see
// the scaling curve (on a small box the higher widths oversubscribe, which
// is exactly the regime where a contended lock shows up as a cliff).

// watchFanoutRig builds a star topology's path index plus a registry
// carrying nSubs subscriptions spread over nPairs endpoint pairs, and
// returns the pairs as the scheduler polls them.
func watchFanoutRig(b testing.TB, nPairs, nSubs int) (*watch.Registry, *topology.PathIndex, [][]netip.Addr) {
	b.Helper()
	g := topology.NewGraph()
	g.AddNode(topology.Node{ID: "sw", Kind: topology.SwitchNode})
	pairs := make([][]netip.Addr, nPairs)
	for i := 0; i < nPairs; i++ {
		src := netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
		dst := netip.AddrFrom4([4]byte{10, 2, byte(i >> 8), byte(i)})
		for _, a := range []netip.Addr{src, dst} {
			g.AddNode(topology.Node{ID: a.String(), Kind: topology.HostNode, Addr: a.String()})
			g.AddLink(topology.Link{From: a.String(), To: "sw", Capacity: 100e6, UtilFromTo: 10e6})
		}
		pairs[i] = []netip.Addr{src, dst}
	}
	reg := watch.New(watch.Config{Now: time.Now})
	b.Cleanup(func() { reg.Close(nil) })
	for i := 0; i < nSubs; i++ {
		p := pairs[i%nPairs]
		sub, err := reg.Subscribe(watch.Spec{Src: p[0], Dst: p[1], ChangeFrac: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		_ = sub // closed by registry Close
	}
	return reg, topology.NewPathIndex(g), pairs
}

// benchWatchEvaluate measures one round of polls, one per watched
// pair, each evaluated against the generation. Grouped evaluation makes
// the path-walk cost one per pair direction; the per-subscription
// residue is a predicate check. The 10k case is the paper's "many
// applications watching few paths" regime.
func benchWatchEvaluate(b *testing.B, nPairs, nSubs int) {
	reg, px, pairs := watchFanoutRig(b, nPairs, nSubs)
	round := func() {
		for _, p := range pairs {
			reg.Evaluate(p, px)
		}
	}
	round() // deliver the initial pushes outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

func BenchmarkWatchEvaluate1kSubs(b *testing.B)  { benchWatchEvaluate(b, 64, 1000) }
func BenchmarkWatchEvaluate10kSubs(b *testing.B) { benchWatchEvaluate(b, 64, 10000) }

// BenchmarkWatchSubscribeChurn measures subscribe/close cycling from
// many goroutines against a registry already carrying 1k standing
// watchers — the control-plane write path that lock striping shards.
// Distinct goroutines land on distinct pairs, so stripes are exercised
// in parallel rather than serializing on one registry lock.
func BenchmarkWatchSubscribeChurn(b *testing.B) {
	reg, _, _ := watchFanoutRig(b, 64, 1000)
	var seq atomic.Uint32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := seq.Add(1)
		src := netip.AddrFrom4([4]byte{172, 16, byte(n >> 8), byte(n)})
		dst := netip.AddrFrom4([4]byte{172, 17, byte(n >> 8), byte(n)})
		for pb.Next() {
			sub, err := reg.Subscribe(watch.Spec{Src: src, Dst: dst, ChangeFrac: 0.5})
			if err != nil {
				b.Fatal(err)
			}
			sub.Close(nil)
		}
	})
}

// BenchmarkHistogramObserveParallel hammers one histogram from many
// goroutines — every served query lands two observations on the request
// histograms, so this is pure metrics-plane overhead. Striped storage
// keeps concurrent observers off a shared float64 CAS loop.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	reg := obs.New()
	h := reg.Histogram("remos_request_seconds", "query serving latency in seconds", nil)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		v := 0.0001
		for pb.Next() {
			h.Observe(v)
			v *= 1.7
			if v > 10 {
				v = 0.0001
			}
		}
	})
}
