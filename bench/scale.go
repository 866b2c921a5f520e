package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"remos/internal/collector"
	"remos/internal/modeler"
	"remos/internal/netsim"
	"remos/internal/rerr"
	"remos/internal/sim"
	"remos/internal/snapshot"
	"remos/internal/topology"
)

// The scale workloads: 8-flow queries answered in-process by the Modeler
// from a snapshot of the 10204-node two-tier fabric. No wire, and the
// collector behind the Modeler refuses every call, so a snapshot miss
// fails the run instead of quietly measuring the fallback.
// scale_static applies the fabric once; scale_churn adds one writer that
// swaps between two pre-built generations once per 10 000 queries.

const (
	scaleSources       = 32
	scaleFlowsPerQuery = 8
	// scaleMixLen distinct queries. The oracle's whole-graph allocation
	// costs ~50 ms per query per graph, which is what bounds it.
	scaleMixLen = 64
	// scaleChurnEvery is how many queries pass between two generation
	// swaps: at the ~40 000 queries/s the workload runs at, one swap every
	// 250 ms. The cadence is counted in queries, not on the wall clock, so
	// that the writer's share of allocs_per_query and bytes_per_query does
	// not change with how fast the host happens to be.
	scaleChurnEvery = 10000
)

type fabric struct {
	sim   *sim.Sim
	hosts []netip.Addr
	graph *topology.Graph // emulator ground truth, utilisations zero
}

func buildFabric() (*fabric, error) {
	s := sim.NewSim()
	n := netsim.New(s)
	tt := netsim.BuildTwoTier(n, netsim.TwoTierSpec{})
	g, err := netsim.TopologyGraph(n)
	if err != nil {
		return nil, fmt.Errorf("ground truth graph: %w", err)
	}
	f := &fabric{sim: s, graph: g, hosts: make([]netip.Addr, len(tt.Hosts))}
	for i, h := range tt.Hosts {
		f.hosts[i] = h.Addr()
	}
	return f, nil
}

// loaded returns a copy of the fabric's graph with deterministic link
// utilisations: variant 0 and variant 1 load different links to different
// degrees, so the two generations of the churn workload give different,
// known answers.
func (f *fabric) loaded(variant int) *topology.Graph {
	g := f.graph.Clone()
	for i, l := range g.Links() {
		l.UtilFromTo = l.Capacity * float64((i*7+variant*3)%10) / 20
		l.UtilToFrom = l.Capacity * float64((i*3+variant*5)%10) / 20
	}
	return g
}

type scalePlan struct {
	queries [][]modeler.Flow
	// want[v][q] is the truth for query q on generation variant v.
	want [2][]queryTruth
}

// planScale draws 32 sources and, per query, 8 flows from 3 of them to
// destinations anywhere on the fabric: flows that share a source share
// its access link, so the max-min step has real sharing to resolve.
func planScale(seed int64, variants int) (*scalePlan, error) {
	f, err := buildFabric()
	if err != nil {
		return nil, err
	}
	rnd := rand.New(rand.NewSource(seed))
	srcs := make([]netip.Addr, scaleSources)
	for i, j := range rnd.Perm(len(f.hosts))[:scaleSources] {
		srcs[i] = f.hosts[j]
	}
	p := &scalePlan{}
	for q := 0; q < scaleMixLen; q++ {
		pick := rnd.Perm(scaleSources)[:3]
		flows := make([]modeler.Flow, scaleFlowsPerQuery)
		for i := range flows {
			src := srcs[pick[i%len(pick)]]
			dst := f.hosts[rnd.Intn(len(f.hosts))]
			for dst == src {
				dst = f.hosts[rnd.Intn(len(f.hosts))]
			}
			flows[i] = modeler.Flow{Src: src, Dst: dst}
		}
		p.queries = append(p.queries, flows)
	}
	// The oracle's tables, the variants side by side on the two cores.
	var wg sync.WaitGroup
	errs := make([]error, variants)
	for v := 0; v < variants; v++ {
		p.want[v] = make([]queryTruth, len(p.queries))
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			truth := f.loaded(v)
			for q, flows := range p.queries {
				if p.want[v][q], errs[v] = groundTruth(truth, flows, true); errs[v] != nil {
					return
				}
			}
		}(v)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// refusingCollector pins that the measured loop never leaves the
// snapshot plane.
type refusingCollector struct{}

func (refusingCollector) Name() string { return "bench-refuse" }
func (refusingCollector) Collect(collector.Query) (*collector.Result, error) {
	return nil, rerr.Tagf(rerr.ErrCollectorUnavailable, "bench: snapshot miss fell back to the collector")
}

func scaleWorkload(name, why string, churn bool) *workload {
	return &workload{name: name, why: why, prepare: func(seed int64) (func() (*rig, error), error) {
		variants := 1
		if churn {
			variants = 2
		}
		plan, err := planScale(seed, variants)
		if err != nil {
			return nil, err
		}
		return func() (*rig, error) { return buildScale(plan, churn) }, nil
	}}
}

func buildScale(plan *scalePlan, churn bool) (*rig, error) {
	f, err := buildFabric()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	store := snapshot.New(snapshot.Config{Now: f.sim.Now})
	gens := []*collector.Result{{Graph: f.loaded(0)}}
	if churn {
		gens = append(gens, &collector.Result{Graph: f.loaded(1)})
	}
	store.Apply(f.hosts, gens[0], f.sim.Now())
	behind := &tracedCollector{inner: refusingCollector{}, tr: tr, l: layerQcache, behindSnapshot: true}
	mdl := modeler.New(modeler.Config{Collector: behind, Snapshot: store, MaxStale: time.Hour})
	answerer := &tracedAnswerer{inner: mdl, tr: tr, l: layerModeler}

	r := &rig{tr: tr, n: len(plan.queries), stop: func() {}}
	ctx := context.Background()
	var got []modeler.FlowInfo
	r.call = func(i int) error {
		var err error
		got, err = answerer.GetFlowsContext(ctx, plan.queries[i], modeler.FlowOptions{})
		return err
	}
	r.check = func(i int) error {
		err := plan.want[0][i].matches(got)
		if err != nil && churn {
			// The answer may come from either generation; it must be
			// exactly one of the two known values.
			if plan.want[1][i].matches(got) == nil {
				return nil
			}
		}
		return err
	}
	// Warm-up: every query once, building the per-source path memos.
	for i := range plan.queries {
		if err := r.call(i); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := r.check(i); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	if churn {
		// The caller rings the writer every scaleChurnEvery queries; the
		// writer applies the other generation beside the reads. A ring
		// that finds the writer still busy is dropped.
		ring := make(chan struct{}, 1)
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			next := 1
			for range ring {
				idx := tr.begin(layerApply)
				store.Apply(f.hosts, gens[next], f.sim.Now())
				tr.end(idx)
				next = 1 - next
			}
		}()
		queries, read := 0, r.call
		r.call = func(i int) error {
			if queries++; queries%scaleChurnEvery == 0 {
				select {
				case ring <- struct{}{}:
				default:
				}
			}
			return read(i)
		}
		r.stop = func() {
			close(ring)
			<-writerDone
		}
	}

	r.probes = func(m map[string]float64) {
		hostSets := make([][]netip.Addr, len(plan.queries))
		reqs := make([][]topology.FlowRequest, len(plan.queries))
		mix := make([]int, len(plan.queries))
		for i, flows := range plan.queries {
			mix[i] = i
			for _, fl := range flows {
				hostSets[i] = append(hostSets[i], fl.Src, fl.Dst)
				reqs[i] = append(reqs[i], topology.FlowRequest{Src: fl.Src.String(), Dst: fl.Dst.String()})
			}
		}
		probeSnapshotPath(m, store, hostSets, reqs, mix)
	}
	return r, nil
}
