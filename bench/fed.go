package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"remos/internal/collector"
	"remos/internal/directory"
	"remos/internal/federation"
	"remos/internal/modeler"
	"remos/internal/netsim"
	"remos/internal/proto"
	"remos/internal/sim"
	"remos/internal/topology"
)

// The federated workload: a 3-domain collector mesh over real loopback
// sockets, as servebench.RunFed builds it but with nobody killed. Each
// domain master serves its slice behind its own wire server and pushes
// its lease from a private directory replica to the querying daemon's
// directory; one TCPClient asks the router for cross-domain single-flow
// answers only. Masters refresh every 100 ms, so the router's
// advert-epoch cache is hit by steady queries and pays refetch + restitch
// after every epoch bump.

const (
	fedDomains  = 3
	fedRefresh  = 100 * time.Millisecond
	fedLeaseTTL = 500 * time.Millisecond
	fedMixLen   = 4096
)

type fedFabric struct {
	net   *netsim.Network
	part  *netsim.Partition
	hosts []netip.Addr
	dom   map[netip.Addr]int
}

func buildFedFabric() (*fedFabric, error) {
	n := netsim.New(sim.NewSim())
	tt := netsim.BuildTwoTier(n, netsim.TwoTierSpec{Spines: 2, Leaves: 2 * fedDomains, HostsPerLeaf: 4})
	part, err := netsim.PartitionDomains(n, fedDomains)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	f := &fedFabric{net: n, part: part, dom: map[netip.Addr]int{}}
	for _, h := range tt.Hosts {
		f.hosts = append(f.hosts, h.Addr())
		f.dom[h.Addr()] = part.DomainOf(h)
	}
	return f, nil
}

type fedPlan struct {
	flows []modeler.Flow // distinct cross-domain pairs
	want  []queryTruth
	mix   []int
}

// planFed enumerates every ordered cross-domain host pair and takes its
// truth from a single-master walk of the unpartitioned fabric.
func planFed(seed int64) (*fedPlan, error) {
	f, err := buildFedFabric()
	if err != nil {
		return nil, err
	}
	truth, err := netsim.TopologyGraph(f.net)
	if err != nil {
		return nil, fmt.Errorf("ground truth graph: %w", err)
	}
	p := &fedPlan{}
	for _, a := range f.hosts {
		for _, b := range f.hosts {
			if f.dom[a] == f.dom[b] {
				continue
			}
			fl := modeler.Flow{Src: a, Dst: b}
			qt, err := groundTruth(truth, []modeler.Flow{fl}, true)
			if err != nil {
				return nil, err
			}
			p.flows = append(p.flows, fl)
			p.want = append(p.want, qt)
		}
	}
	rnd := rand.New(rand.NewSource(seed))
	p.mix = make([]int, fedMixLen)
	for i := range p.mix {
		p.mix[i] = rnd.Intn(len(p.flows))
	}
	return p, nil
}

func fedWorkload(name, why string) *workload {
	return &workload{name: name, why: why, prepare: func(seed int64) (func() (*rig, error), error) {
		plan, err := planFed(seed)
		if err != nil {
			return nil, err
		}
		return func() (*rig, error) { return buildFed(plan) }, nil
	}}
}

func buildFed(plan *fedPlan) (_ *rig, err error) {
	f, err := buildFedFabric()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	clk := sim.Real{}
	var closers []func()
	stop := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer func() {
		if err != nil {
			stop()
		}
	}()

	// The querying daemon: a directory replica receiving every master's
	// lease over the wire, and the federation router serving the client.
	rdir := directory.New(clk)
	rdirSrv := &directory.Server{Service: rdir}
	rdirAddr, err := rdirSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("directory listen: %w", err)
	}
	closers = append(closers, func() { rdirSrv.Close() })
	// Parallelism 1: with the default (GOMAXPROCS) on two Ps the router
	// starts two goroutines per query even when every domain is cached,
	// and their cross-thread wake-ups split the latency into two modes of
	// nearly equal weight (p50 swung 15..43 us second to second, qps was
	// a third of this); see README, "Findings". On the one P the rigs
	// run on the default would resolve to 1 too; the pin says so.
	router, err := federation.NewRouter(federation.RouterConfig{Directory: rdir, Timeout: 5 * time.Second, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	answerer := &tracedAnswerer{inner: router, tr: tr, l: layerFederation}
	routerSrv := &proto.TCPServer{Collector: router, Flows: answerer}
	routerAddr, err := routerSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("router listen: %w", err)
	}
	closers = append(closers, func() { routerSrv.Close() })

	// One master per domain, each behind its own wire server whose
	// collector is the domain's, interposed.
	for d := 0; d < fedDomains; d++ {
		d := d
		gate := &lateCollector{ready: make(chan struct{})}
		srv := &proto.TCPServer{Collector: gate}
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("master listen: %w", err)
		}
		closers = append(closers, func() { srv.Close() })
		mdir := directory.New(clk)
		ds, err := federation.StartDomain(federation.DomainConfig{
			Name:      fmt.Sprintf("d%d-p0", d),
			Domain:    fmt.Sprintf("d%d", d),
			Endpoint:  "tcp://" + addr,
			Graph:     func() (*topology.Graph, error) { return f.part.ServingGraph(d) },
			Hosts:     f.part.DomainHosts(d),
			Prefixes:  f.part.HostPrefixes(d),
			Directory: mdir,
			Sched:     clk,
			Refresh:   fedRefresh,
			LeaseTTL:  fedLeaseTTL,
		})
		if err != nil {
			return nil, err
		}
		closers = append(closers, ds.Close)
		gate.inner = &tracedCollector{inner: ds.Collector(), tr: tr, l: layerFetch}
		close(gate.ready)
		rep := directory.StartReplicator(directory.ReplicatorConfig{
			Service: mdir, Peers: []string{rdirAddr}, Sched: clk, Interval: fedRefresh,
		})
		closers = append(closers, rep.Close)
		rep.Push()
	}

	cl := &proto.TCPClient{Addr: routerAddr}
	closers = append(closers, func() { cl.Close() })
	r := &rig{tr: tr, n: len(plan.mix), protoMetric: "proto.ascii_self_us", stop: stop}
	ctx := context.Background()
	fq := make([]modeler.Flow, 1)
	var got []modeler.FlowInfo
	r.call = func(i int) error {
		fq[0] = plan.flows[plan.mix[i]]
		var err error
		got, err = cl.Flows(ctx, fq)
		return err
	}
	r.check = func(i int) error { return plan.want[plan.mix[i]].matches(got) }

	// Warm-up: wait until all three leases have reached the router's
	// directory (the first answers fail typed until then), then ask every
	// distinct pair once.
	deadline := time.Now().Add(5 * time.Second)
	for {
		fq[0] = plan.flows[0]
		if _, err = cl.Flows(ctx, fq); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("warm-up: mesh never converged: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	for i := range plan.flows {
		fq[0] = plan.flows[i]
		if got, err = cl.Flows(ctx, fq); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err = plan.want[i].matches(got); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return r, nil
}

// lateCollector lets a wire server start listening before the collector
// it serves exists: a domain master needs its bound address for its
// advert, and its collector only exists once the domain has started.
type lateCollector struct {
	inner collector.Interface
	ready chan struct{} // closed once inner is set
}

func (l *lateCollector) Name() string { return "bench-domain-master" }

func (l *lateCollector) Collect(q collector.Query) (*collector.Result, error) {
	<-l.ready
	return l.inner.Collect(q)
}
