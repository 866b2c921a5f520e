package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"remos/internal/admission"
	"remos/internal/collector/qcache"
	"remos/internal/core"
	"remos/internal/modeler"
	"remos/internal/netsim"
	"remos/internal/proto"
	"remos/internal/sim"
	"remos/internal/snapshot"
	"remos/internal/topology"
)

// The warm workloads: single-flow FLOWS queries over the two-site rig
// (4 app hosts per site behind a switch and a router each, a constrained
// WAN hop between the sites), answered by the server-side Modeler from a
// fresh snapshot, through admission with one keyed tenant. warm_ascii
// speaks the line protocol over one TCP connection, warm_http the
// XML/HTTP protocol over one keep-alive connection.

const (
	warmTenant    = "bench"
	warmTenantKey = "bench-key"
	// warmMixLen is the length of the generated query sequence; at some
	// 10^4..10^5 queries per second every round replays it many times.
	warmMixLen = 4096
)

// twoSite is the emulated network of the warm rig.
type twoSite struct {
	sim      *sim.Sim
	net      *netsim.Network
	apps     []*netsim.Device // site-major: apps[0:4] site 0, apps[4:8] site 1
	switches []*netsim.Device
	benches  []*netsim.Device
}

func buildTwoSite() *twoSite {
	s := sim.NewSim()
	n := netsim.New(s)
	ts := &twoSite{sim: s, net: n}
	hub := n.AddRouter("hub")
	for i := 0; i < 2; i++ {
		r := n.AddRouter(fmt.Sprintf("r%d", i))
		sw := n.AddSwitch(fmt.Sprintf("sw%d", i))
		bench := n.AddHost(fmt.Sprintf("bench%d", i))
		n.Connect(r, hub, 10e6, 40*time.Millisecond)
		n.Connect(sw, r, 1e9, time.Millisecond)
		n.Connect(bench, sw, 100e6, time.Millisecond)
		for h := 0; h < 4; h++ {
			app := n.AddHost(fmt.Sprintf("app%d-%d", i, h))
			n.Connect(app, sw, 100e6, time.Millisecond)
			ts.apps = append(ts.apps, app)
		}
		ts.switches = append(ts.switches, sw)
		ts.benches = append(ts.benches, bench)
	}
	n.AssignSubnets()
	n.ComputeRoutes()
	return ts
}

// warmPairs is the 9-pair population the mix draws from: every same-site
// pair of site 0's apps plus three cross-site pairs over the WAN hop.
func warmPairs(ts *twoSite) [][2]netip.Addr {
	var pairs [][2]netip.Addr
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			pairs = append(pairs, [2]netip.Addr{ts.apps[i].Addr(), ts.apps[j].Addr()})
		}
	}
	for i := 0; i < 3; i++ {
		pairs = append(pairs, [2]netip.Addr{ts.apps[i].Addr(), ts.apps[4+i].Addr()})
	}
	return pairs
}

// warmPlan is the seed's query mix and the oracle's answer per distinct
// query.
type warmPlan struct {
	flows []modeler.Flow // distinct queries: each pair in both directions
	mix   []int          // indices into flows
	want  []queryTruth
}

func planWarm(seed int64) (*warmPlan, error) {
	ts := buildTwoSite()
	truth, err := netsim.TopologyGraph(ts.net)
	if err != nil {
		return nil, fmt.Errorf("ground truth graph: %w", err)
	}
	p := &warmPlan{}
	for _, pr := range warmPairs(ts) {
		p.flows = append(p.flows, modeler.Flow{Src: pr[0], Dst: pr[1]}, modeler.Flow{Src: pr[1], Dst: pr[0]})
	}
	for _, f := range p.flows {
		qt, err := groundTruth(truth, []modeler.Flow{f}, false)
		if err != nil {
			return nil, err
		}
		p.want = append(p.want, qt)
	}
	rnd := rand.New(rand.NewSource(seed))
	p.mix = make([]int, warmMixLen)
	for i := range p.mix {
		p.mix[i] = rnd.Intn(len(p.flows))
	}
	return p, nil
}

func warmWorkload(name, why string, http bool) *workload {
	return &workload{name: name, why: why, prepare: func(seed int64) (func() (*rig, error), error) {
		plan, err := planWarm(seed)
		if err != nil {
			return nil, err
		}
		return func() (*rig, error) { return buildWarm(plan, http) }, nil
	}}
}

func buildWarm(plan *warmPlan, http bool) (*rig, error) {
	ts := buildTwoSite()
	tr := newTracer()
	dep := core.NewDeployment(ts.sim, ts.net, core.Options{Parallelism: 1})
	dep.Transport = &tracedTransport{inner: dep.Transport, tr: tr}
	for i := range ts.switches {
		if _, err := dep.AddSite(core.SiteSpec{
			Name:      fmt.Sprintf("site%d", i),
			Switches:  []*netsim.Device{ts.switches[i]},
			BenchHost: ts.benches[i],
		}); err != nil {
			return nil, err
		}
	}
	if err := dep.Finish(); err != nil {
		return nil, err
	}
	if err := dep.MeasureAllBenchmarks(); err != nil {
		return nil, err
	}

	cache := qcache.New(dep.Sites["site0"].Master, qcache.Config{TTL: time.Hour, Now: ts.sim.Now})
	snap := snapshot.New(snapshot.Config{Now: ts.sim.Now})
	behind := &tracedCollector{inner: cache, tr: tr, l: layerQcache, behindSnapshot: true}
	mdl := modeler.New(modeler.Config{Collector: behind, Snapshot: snap, MaxStale: time.Hour})
	answerer := &tracedAnswerer{inner: mdl, tr: tr, l: layerModeler}
	ctrl := admission.New(admission.Config{Tenants: map[string]admission.TenantConfig{
		warmTenant: {Key: warmTenantKey, Limits: admission.Limits{MaxConcurrent: 64}},
	}})

	r := &rig{tr: tr, n: len(plan.mix)}
	var flows func(context.Context, []modeler.Flow) ([]modeler.FlowInfo, error)
	var closers []func()
	if http {
		srv := &proto.HTTPServer{Collector: cache, Flows: answerer, Admission: ctrl}
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		cl := &proto.HTTPClient{BaseURL: "http://" + addr, Tenant: warmTenant, TenantKey: warmTenantKey}
		flows = cl.Flows
		closers = append(closers, func() { srv.Close() })
		r.protoMetric = "proto.http_self_us"
	} else {
		srv := &proto.TCPServer{Collector: cache, Flows: answerer, Admission: ctrl}
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		cl := &proto.TCPClient{Addr: addr, Tenant: warmTenant, TenantKey: warmTenantKey}
		flows = cl.Flows
		closers = append(closers, func() { cl.Close() }, func() { srv.Close() })
		r.protoMetric = "proto.ascii_self_us"
	}
	r.stop = func() {
		for _, c := range closers {
			c()
		}
		ctrl.Close()
		dep.Stop()
	}

	// Warm-up: one flow query over the whole population seeds the
	// snapshot store through a single coalesced walk; after it the
	// collectors are never reached again (the walk counter is reset
	// below and must stay at zero).
	ctx := context.Background()
	if _, err := flows(ctx, plan.flows); err != nil {
		r.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	fq := make([]modeler.Flow, 1)
	for i := range plan.flows {
		fq[0] = plan.flows[i]
		if _, err := flows(ctx, fq); err != nil {
			r.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	tr.collectCalls.Store(0)
	tr.exchanges.Store(0)

	var got []modeler.FlowInfo
	r.call = func(i int) error {
		fq[0] = plan.flows[plan.mix[i]]
		var err error
		got, err = flows(ctx, fq)
		return err
	}
	r.check = func(i int) error { return plan.want[plan.mix[i]].matches(got) }

	r.probes = func(m map[string]float64) {
		ten, err := ctrl.Authenticate(warmTenant, warmTenantKey)
		if err == nil {
			m["admission.admit_us"] = probe(31, 2000, func(int) {
				if release, err := ctrl.Admit(ctx, ten, admission.TierDefault); err == nil {
					release()
				}
			})
		}
		hostSets := make([][]netip.Addr, len(plan.flows))
		reqs := make([][]topology.FlowRequest, len(plan.flows))
		for i, f := range plan.flows {
			hostSets[i] = []netip.Addr{f.Src, f.Dst}
			reqs[i] = []topology.FlowRequest{{Src: f.Src.String(), Dst: f.Dst.String()}}
		}
		probeSnapshotPath(m, snap, hostSets, reqs, plan.mix)
	}
	return r, nil
}
