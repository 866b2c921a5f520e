// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per exhibit, as indexed in DESIGN.md), plus
// ablation benchmarks for the design choices the paper calls out:
// route/ARP caching, max-min vs. naive bottleneck flow answers,
// client-server vs. streaming prediction, and GetBulk vs. GetNext walks.
//
// Absolute numbers reflect this machine and the emulated substrate; the
// shapes are what EXPERIMENTS.md compares against the paper.
package remos_test

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"remos"
	"remos/internal/collector"
	"remos/internal/experiments"
	"remos/internal/hostload"
	"remos/internal/mib"
	"remos/internal/netsim"
	"remos/internal/rps"
	"remos/internal/sim"
	"remos/internal/snmp"
	"remos/internal/topology"
)

// BenchmarkFig3LANScalability regenerates the LAN collector response-time
// curves (cold/part-warm/warm-bridge/warm) up to 256-node queries.
func BenchmarkFig3LANScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(256)
		if err != nil {
			b.Fatal(err)
		}
		last := r.Rows[len(r.Rows)-1]
		b.ReportMetric(last.Cold.Seconds(), "cold-s")
		b.ReportMetric(last.Warm.Seconds(), "warm-s")
	}
}

// BenchmarkFig4Accuracy2s regenerates the 2-second-interval accuracy run.
func BenchmarkFig4Accuracy2s(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig45(2*time.Second, 180*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MAE, "MAE-Mbps")
	}
}

// BenchmarkFig5Accuracy5s regenerates the 5-second-interval accuracy run.
func BenchmarkFig5Accuracy5s(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig45(5*time.Second, 200*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MAE, "MAE-Mbps")
	}
}

// BenchmarkFig6RPSRate regenerates the CPU-vs-measurement-rate sweep.
func BenchmarkFig6RPSRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Points[0].StepCost.Seconds()*1e6, "step-us")
	}
}

// BenchmarkFig7ModelCosts regenerates the per-model fit/step cost table.
func BenchmarkFig7ModelCosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8MirrorGood regenerates the well-connected mirrored-server
// experiment (24 trials per iteration; remosbench runs the paper's 108).
func BenchmarkFig8MirrorGood(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Mirror(experiments.Fig8Sites, 24, 3e6, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FractionCorrect(), "frac-correct")
	}
}

// BenchmarkFig9MirrorPoor regenerates the poorly-connected variant.
func BenchmarkFig9MirrorPoor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Mirror(experiments.Fig9Sites, 18, 3e6, int64(i)+2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FractionCorrect(), "frac-correct")
	}
}

// BenchmarkTable1SiteBandwidth regenerates the per-site bandwidth table.
func BenchmarkTable1SiteBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(24, int64(i)+3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].MeanBw/1e6, "eth-Mbps")
	}
}

// BenchmarkFig10Video regenerates the video server-selection runs.
func BenchmarkFig10Video(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(21, int64(i)+4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FractionCorrect(), "frac-correct")
	}
}

// BenchmarkFig11Intervals regenerates the bandwidth-averaging experiment.
func BenchmarkFig11Intervals(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(int64(i) + 5); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSite builds the warm two-router testbed used by the query-rate and
// ablation benchmarks.
type benchSite struct {
	s     *sim.Sim
	n     *netsim.Network
	sc    *collectorUnderTest
	hosts []netip.Addr
}

// collectorUnderTest wraps whatever the ablations need; defined via the
// snmpcoll-backed helpers below.
type collectorUnderTest = snmpcollCollector

func BenchmarkSingleFlowQueryRate(b *testing.B) {
	// §5.3: "we were able to run a Remos query for a single flow at
	// about 14 Hz" — here: warm single-pair queries per second against
	// the in-process collector stack (real CPU time; the simulated SNMP
	// latency is not slept).
	st := newBenchSite(b, false)
	q := collector.Query{Hosts: st.hosts}
	if _, err := st.sc.Collect(q); err != nil {
		b.Fatal(err)
	}
	st.s.RunFor(6 * time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.sc.Collect(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictionLatency measures one measurement->prediction step of
// the streaming AR(16) host-load system (§5.3: 1-2 ms on a 2001 Alpha).
func BenchmarkPredictionLatency(b *testing.B) {
	gen := hostload.NewGenerator(hostload.Config{Seed: 1})
	m, err := (rps.ARFitter{P: 16}).Fit(gen.Trace(600))
	if err != nil {
		b.Fatal(err)
	}
	stream := rps.NewStream(m, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Observe(gen.Next())
	}
}

// BenchmarkAblationRouteCacheOn/Off: repeat queries with and without the
// collector's route/ARP caches (the mechanism behind Fig 3's cold/warm
// gap).
func BenchmarkAblationRouteCacheOn(b *testing.B)  { ablationRouteCache(b, false) }
func BenchmarkAblationRouteCacheOff(b *testing.B) { ablationRouteCache(b, true) }

func ablationRouteCache(b *testing.B, disable bool) {
	st := newBenchSite(b, disable)
	q := collector.Query{Hosts: st.hosts}
	if _, err := st.sc.Collect(q); err != nil {
		b.Fatal(err)
	}
	var reqs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := st.sc.CollectWithStats(q)
		if err != nil {
			b.Fatal(err)
		}
		reqs = stats.Requests
	}
	b.ReportMetric(float64(reqs), "snmp-reqs/query")
}

// BenchmarkAblationMaxMin vs Bottleneck: the Modeler's sharing-aware flow
// calculation against the naive per-flow bottleneck estimate.
func BenchmarkAblationMaxMinFlows(b *testing.B) {
	g := benchGraph(b)
	reqs := []topology.FlowRequest{
		{Src: "h0", Dst: "h3"}, {Src: "h1", Dst: "h3"}, {Src: "h2", Dst: "h3"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.FlowAlloc(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNaiveBottleneck(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, pair := range [][2]string{{"h0", "h3"}, {"h1", "h3"}, {"h2", "h3"}} {
			if _, _, err := g.BottleneckAvail(pair[0], pair[1]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationClientServer vs Streaming: the §2.3 trade-off — the
// stateless interface refits per request; the streaming interface
// amortizes one fit over many predictions.
func BenchmarkAblationClientServerPredict(b *testing.B) {
	gen := hostload.NewGenerator(hostload.Config{Seed: 2})
	series := gen.Trace(600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rps.Predict(rps.ARFitter{P: 16}, series, 30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStreamingPredict(b *testing.B) {
	gen := hostload.NewGenerator(hostload.Config{Seed: 2})
	m, err := (rps.ARFitter{P: 16}).Fit(gen.Trace(600))
	if err != nil {
		b.Fatal(err)
	}
	stream := rps.NewStream(m, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Observe(gen.Next())
	}
}

// BenchmarkAblationWalk vs BulkWalk on a large interfaces table.
func BenchmarkAblationGetNextWalk(b *testing.B) { ablationWalk(b, false) }
func BenchmarkAblationGetBulkWalk(b *testing.B) { ablationWalk(b, true) }

func ablationWalk(b *testing.B, bulk bool) {
	s := sim.NewSim()
	n := netsim.New(s)
	sw := n.AddSwitch("bigsw")
	for i := 0; i < 48; i++ {
		h := n.AddHost(benchHostName(i))
		n.Connect(h, sw, 100e6, 0)
	}
	n.AssignSubnets()
	n.ComputeRoutes()
	reg := snmp.NewRegistry()
	mib.AttachAll(n, reg)
	cl := snmp.NewClient(&snmp.InProc{Registry: reg}, "public")
	addr := sw.ManagementAddr().String()
	root := mib.IfTable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		count := 0
		if bulk {
			err = cl.BulkWalk(addr, root, 32, func(snmp.OID, snmp.Value) bool { count++; return true })
		} else {
			err = cl.Walk(addr, root, func(snmp.OID, snmp.Value) bool { count++; return true })
		}
		if err != nil {
			b.Fatal(err)
		}
		if count == 0 {
			b.Fatal("walk returned nothing")
		}
	}
}

func benchHostName(i int) string {
	return "bh" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

func benchGraph(b *testing.B) *topology.Graph {
	g := topology.NewGraph()
	for _, id := range []string{"h0", "h1", "h2", "h3"} {
		g.AddNode(topology.Node{ID: id, Kind: topology.HostNode})
	}
	g.AddNode(topology.Node{ID: "r", Kind: topology.RouterNode})
	g.AddNode(topology.Node{ID: "r2", Kind: topology.RouterNode})
	for _, id := range []string{"h0", "h1", "h2"} {
		if _, err := g.AddLink(topology.Link{From: id, To: "r", Capacity: 100e6}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := g.AddLink(topology.Link{From: "r", To: "r2", Capacity: 10e6, UtilFromTo: 2e6}); err != nil {
		b.Fatal(err)
	}
	if _, err := g.AddLink(topology.Link{From: "r2", To: "h3", Capacity: 100e6}); err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkAblationPredictionSource compares the two prediction sources
// the Modeler can use for a flow query: client-side fitting over shipped
// history vs. consuming the collector's streaming forecast. The gap is
// the fit cost the streaming configuration amortizes away per query.
func BenchmarkAblationPredictClientSide(b *testing.B)    { ablationPredictSource(b, false) }
func BenchmarkAblationPredictFromCollector(b *testing.B) { ablationPredictSource(b, true) }

func ablationPredictSource(b *testing.B, fromCollector bool) {
	st := newBenchSite(b, false)
	q := collector.Query{Hosts: st.hosts}
	if _, err := st.sc.Collect(q); err != nil {
		b.Fatal(err)
	}
	// Load + history + streaming fits.
	if _, err := st.n.StartFlow(st.n.Device("h1"), st.n.Device("h2"),
		netsim.FlowSpec{Demand: 3e6}); err != nil {
		b.Fatal(err)
	}
	st.s.RunFor(20 * time.Minute)
	m := remos.NewModelerConfig(remos.ModelerConfig{
		Collector:    st.sc,
		PredictModel: "AR(16)",
		MinHistory:   32,
	})
	flows := []remos.Flow{{Src: st.hosts[0], Dst: st.hosts[1]}}
	opt := remos.FlowOptions{Predict: true, Horizon: 3, FromCollector: fromCollector}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.GetFlowsContext(context.Background(), flows, opt); err != nil {
			b.Fatal(err)
		}
	}
}
