package modeler

import (
	"context"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/netsim"
	"remos/internal/sim"
	"remos/internal/snapshot"
	"remos/internal/topology"
)

// twoTierSnapshot is a Modeler over a store holding one of netsim's
// two-tier fabrics (the zero spec: 10 204 nodes) as one generation with
// every host fresh, and the fabric's host addresses. load, if not nil,
// measures the fabric's graph before the store holds it.
func twoTierSnapshot(tb testing.TB, spec netsim.TwoTierSpec, load func(*topology.Graph)) (*Modeler, []netip.Addr) {
	s := sim.NewSim()
	n := netsim.New(s)
	tt := netsim.BuildTwoTier(n, spec)
	g, err := netsim.TopologyGraph(n)
	if err != nil {
		tb.Fatal(err)
	}
	if load != nil {
		load(g)
	}
	hosts := make([]netip.Addr, len(tt.Hosts))
	for i, h := range tt.Hosts {
		hosts[i] = h.Addr()
	}
	store := snapshot.New(snapshot.Config{Now: s.Now})
	store.Apply(hosts, &collector.Result{Graph: g}, s.Now())
	return New(Config{Collector: &countingColl{}, Snapshot: store, MaxStale: time.Hour}), hosts
}

// BenchmarkSnapshotFlows is the snapshot-backed flow query as bench/'s
// scale_static workload runs it: 64 distinct 8-flow queries, each from
// three of 32 sources (flows from one source share its access link, so
// max-min has sharing to resolve) to destinations anywhere on a
// 10 204-node fabric. The pin for this path's layout and hashing outside
// the contract run.
func BenchmarkSnapshotFlows(b *testing.B) {
	m, hosts := twoTierSnapshot(b, netsim.TwoTierSpec{}, nil)
	queries := scaleQueries(rand.New(rand.NewSource(1)), hosts)
	ctx := context.Background()
	for _, flows := range queries { // build the sources' trees
		if _, err := m.GetFlowsContext(ctx, flows, FlowOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.GetFlowsContext(ctx, queries[i%len(queries)], FlowOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// scaleQueries is 64 distinct 8-flow queries as bench/'s scale workloads
// ask them: each from three of 32 sources to destinations anywhere.
func scaleQueries(rng *rand.Rand, hosts []netip.Addr) [][]Flow {
	sources := rng.Perm(len(hosts))[:32]
	queries := make([][]Flow, 64)
	for q := range queries {
		pick := rng.Perm(len(sources))[:3]
		for i := 0; i < 8; i++ {
			src := hosts[sources[pick[i%3]]]
			dst := hosts[rng.Intn(len(hosts))]
			for dst == src {
				dst = hosts[rng.Intn(len(hosts))]
			}
			queries[q] = append(queries[q], Flow{Src: src, Dst: dst})
		}
	}
	return queries
}
