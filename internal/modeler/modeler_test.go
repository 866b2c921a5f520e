package modeler

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/rerr"
	"remos/internal/topology"
)

// fakeColl serves a fixed dumbbell graph with optional history:
//
//	a, b - s1 - r1 - r2 - s2 - c   (WAN r1-r2: cap 10e6, util 4e6 fwd)
type fakeColl struct {
	history  bool
	lastQ    collector.Query
	histGen  func() map[collector.HistKey][]collector.Sample
	predGen  func() map[collector.HistKey]collector.Forecast
	failWith error
}

func (f *fakeColl) Name() string { return "fake" }

func (f *fakeColl) Collect(q collector.Query) (*collector.Result, error) {
	f.lastQ = q
	if f.failWith != nil {
		return nil, f.failWith
	}
	g := topology.NewGraph()
	for _, n := range []topology.Node{
		{ID: "10.0.1.1", Kind: topology.HostNode, Addr: "10.0.1.1"},
		{ID: "10.0.1.2", Kind: topology.HostNode, Addr: "10.0.1.2"},
		{ID: "10.0.2.1", Kind: topology.HostNode, Addr: "10.0.2.1"},
		{ID: "s1", Kind: topology.SwitchNode},
		{ID: "s2", Kind: topology.SwitchNode},
		{ID: "r1", Kind: topology.RouterNode, Addr: "10.9.0.1"},
		{ID: "r2", Kind: topology.RouterNode, Addr: "10.9.0.2"},
	} {
		g.AddNode(n)
	}
	must := func(l topology.Link) {
		if _, err := g.AddLink(l); err != nil {
			panic(err)
		}
	}
	must(topology.Link{From: "10.0.1.1", To: "s1", Capacity: 100e6, Latency: time.Millisecond})
	must(topology.Link{From: "10.0.1.2", To: "s1", Capacity: 100e6, Latency: time.Millisecond})
	must(topology.Link{From: "s1", To: "r1", Capacity: 100e6, Latency: time.Millisecond})
	must(topology.Link{From: "r1", To: "r2", Capacity: 10e6, UtilFromTo: 4e6, Latency: 10 * time.Millisecond})
	must(topology.Link{From: "r2", To: "s2", Capacity: 100e6, Latency: time.Millisecond})
	must(topology.Link{From: "s2", To: "10.0.2.1", Capacity: 100e6, Latency: time.Millisecond})
	res := &collector.Result{Graph: g}
	if q.WithHistory && f.histGen != nil {
		res.History = f.histGen()
	}
	if q.WithPredictions && f.predGen != nil {
		res.Predictions = f.predGen()
	}
	return res, nil
}

func a(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestGetTopologySimplifies(t *testing.T) {
	m := New(Config{Collector: &fakeColl{}})
	g, err := m.GetTopologyContext(context.Background(), []netip.Addr{a("10.0.1.1"), a("10.0.2.1")}, TopologyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Pruned (10.0.1.2 gone) and chains collapsed (s1, s2 gone).
	if g.Node("10.0.1.2") != nil {
		t.Fatal("off-path host survived simplification")
	}
	if g.Node("s1") != nil || g.Node("s2") != nil {
		t.Fatal("degree-2 switches survived simplification")
	}
	// The answer is still correct: bottleneck 6e6 toward 10.0.2.1.
	if bw, err := loneFlowRate(g, "10.0.1.1", "10.0.2.1"); err != nil || math.Abs(bw-6e6) > 1 {
		t.Fatalf("bw = %v err = %v, want 6e6", bw, err)
	}
}

// loneFlowRate is the max-min rate of a lone flow from -> to on g: its
// path's bottleneck available bandwidth.
func loneFlowRate(g *topology.Graph, from, to string) (float64, error) {
	preds, err := g.FlowAlloc([]topology.FlowRequest{{Src: from, Dst: to}})
	if err != nil {
		return 0, err
	}
	return preds[0].Available, nil
}

// An address that is a node's Addr but not its ID is no endpoint: flow
// answers resolve addresses as node IDs on every path, the collectors'
// walk included, so the walk fails typed, plain or predicted, and the
// caller can tell it from a network with no route.
func TestWalkedFlowsTypeAnUnknownEndpoint(t *testing.T) {
	m := New(Config{Collector: &fakeColl{}})
	flows := []Flow{{Src: a("10.9.0.1"), Dst: a("10.0.2.1")}} // r1's Addr
	for _, opt := range []FlowOptions{{}, {Predict: true}} {
		_, err := m.GetFlowsContext(context.Background(), flows, opt)
		if !errors.Is(err, rerr.ErrUnknownHost) {
			t.Fatalf("predict=%t: err = %v, want ErrUnknownHost", opt.Predict, err)
		}
	}
}

func TestGetTopologyRaw(t *testing.T) {
	m := New(Config{Collector: &fakeColl{}})
	g, err := m.GetTopologyContext(context.Background(), []netip.Addr{a("10.0.1.1"), a("10.0.2.1")}, TopologyOptions{Raw: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes()) != 7 {
		t.Fatalf("raw graph nodes = %d, want 7", len(g.Nodes()))
	}
}

func TestGetFlowsMaxMin(t *testing.T) {
	m := New(Config{Collector: &fakeColl{}})
	infos, err := m.GetFlowsContext(context.Background(), []Flow{
		{Src: a("10.0.1.1"), Dst: a("10.0.2.1")},
		{Src: a("10.0.1.2"), Dst: a("10.0.2.1")},
	}, FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 6e6 residual shared by two flows.
	for i, inf := range infos {
		if math.Abs(inf.Available-3e6) > 1 {
			t.Fatalf("flow %d available %v, want 3e6", i, inf.Available)
		}
	}
	if infos[0].Latency != 14*time.Millisecond {
		t.Fatalf("latency %v, want 14ms", infos[0].Latency)
	}
	if len(infos[0].Path) != 6 {
		t.Fatalf("path %v", infos[0].Path)
	}
}

func TestGetFlowsEmptyRejected(t *testing.T) {
	m := New(Config{Collector: &fakeColl{}})
	if _, err := m.GetFlowsContext(context.Background(), nil, FlowOptions{}); err == nil {
		t.Fatal("empty flow query accepted")
	}
}

func TestCollectorErrorPropagates(t *testing.T) {
	m := New(Config{Collector: &fakeColl{failWith: fmt.Errorf("down")}})
	if _, err := m.AvailableBandwidthContext(context.Background(), a("10.0.1.1"), a("10.0.2.1")); err == nil {
		t.Fatal("collector failure swallowed")
	}
}

// steadyHistory returns per-link WAN history trending to a given level.
func steadyHistory(level float64, n int) func() map[collector.HistKey][]collector.Sample {
	return func() map[collector.HistKey][]collector.Sample {
		ss := make([]collector.Sample, n)
		for i := range ss {
			ss[i] = collector.Sample{T: time.Unix(int64(i*5), 0), Bits: level}
		}
		return map[collector.HistKey][]collector.Sample{
			{From: "r1", To: "r2"}: ss,
		}
	}
}

func TestFlowPredictionUsesHistory(t *testing.T) {
	// History says the WAN carries a steady 8e6, though the snapshot
	// says 4e6: the prediction must follow the history.
	fc := &fakeColl{histGen: steadyHistory(8e6, 200)}
	m := New(Config{Collector: fc})
	infos, err := m.GetFlowsContext(context.Background(), []Flow{{Src: a("10.0.1.1"), Dst: a("10.0.2.1")}},
		FlowOptions{Predict: true, Horizon: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !fc.lastQ.WithHistory {
		t.Fatal("prediction did not request history")
	}
	if math.Abs(infos[0].Available-6e6) > 1 {
		t.Fatalf("current available %v, want 6e6", infos[0].Available)
	}
	if math.Abs(infos[0].Predicted-2e6) > 2e5 {
		t.Fatalf("predicted available %v, want ~2e6 (10e6 cap - 8e6 history)", infos[0].Predicted)
	}
}

func TestFlowPredictionShortHistoryFallsBack(t *testing.T) {
	fc := &fakeColl{histGen: steadyHistory(9e6, 5)} // below minHistory
	m := New(Config{Collector: fc})
	infos, err := m.GetFlowsContext(context.Background(), []Flow{{Src: a("10.0.1.1"), Dst: a("10.0.2.1")}},
		FlowOptions{Predict: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(infos[0].Predicted-1e6) > 1 {
		t.Fatalf("short-history prediction %v, want 1e6 (last value)", infos[0].Predicted)
	}
}

func TestFlowPredictionBadModelSpec(t *testing.T) {
	fc := &fakeColl{histGen: steadyHistory(8e6, 200)}
	m := New(Config{Collector: fc})
	if _, err := m.GetFlowsContext(context.Background(), []Flow{{Src: a("10.0.1.1"), Dst: a("10.0.2.1")}},
		FlowOptions{Predict: true, Model: "WAVELET(3)"}); err == nil {
		t.Fatal("bad model spec accepted")
	}
}

func TestBestServerRanks(t *testing.T) {
	m := New(Config{Collector: &fakeColl{}})
	// Both candidates resolve over the same graph; 10.0.1.2 shares the
	// client's LAN (100e6), 10.0.2.1 crosses the WAN (6e6 avail).
	ranks, err := m.BestServerContext(context.Background(), a("10.0.1.1"),
		[]netip.Addr{a("10.0.2.1"), a("10.0.1.2")}, FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ranks[0].Server != a("10.0.1.2") {
		t.Fatalf("best server = %v, want the LAN-local 10.0.1.2 (ranks %+v)", ranks[0].Server, ranks)
	}
	if ranks[0].Bandwidth <= ranks[1].Bandwidth {
		t.Fatal("ranking not descending")
	}
}

func TestBestServerNoCandidates(t *testing.T) {
	m := New(Config{Collector: &fakeColl{}})
	if _, err := m.BestServerContext(context.Background(), a("10.0.1.1"), nil, FlowOptions{}); err == nil {
		t.Fatal("empty candidate list accepted")
	}
}

func TestPredictSeries(t *testing.T) {
	fc := &fakeColl{histGen: steadyHistory(5e6, 300)}
	m := New(Config{Collector: fc})
	p, err := m.PredictSeriesContext(context.Background(), a("10.0.1.1"), a("10.0.2.1"), "BM(16)", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Values) != 4 {
		t.Fatalf("horizon %d", len(p.Values))
	}
	if math.Abs(p.Values[0]-5e6) > 1 {
		t.Fatalf("predicted %v, want 5e6", p.Values[0])
	}
}

func TestPredictSeriesNoHistory(t *testing.T) {
	m := New(Config{Collector: &fakeColl{}})
	if _, err := m.PredictSeriesContext(context.Background(), a("10.0.1.1"), a("10.0.2.1"), "MEAN", 1); err == nil {
		t.Fatal("prediction without history succeeded")
	}
}

func TestFlowPredictionFromCollector(t *testing.T) {
	// The collector serves a streaming forecast saying the WAN runs at
	// 9e6, contradicting both the snapshot (4e6) and the history (8e6):
	// with FromCollector the forecast wins.
	fc := &fakeColl{histGen: steadyHistory(8e6, 200)}
	fc.predGen = func() map[collector.HistKey]collector.Forecast {
		return map[collector.HistKey]collector.Forecast{
			{From: "r1", To: "r2"}: {
				Values: []float64{9e6, 9e6, 9e6},
				ErrVar: []float64{1e10, 2e10, 3e10},
			},
		}
	}
	m := New(Config{Collector: fc})
	infos, err := m.GetFlowsContext(context.Background(), []Flow{{Src: a("10.0.1.1"), Dst: a("10.0.2.1")}},
		FlowOptions{Predict: true, Horizon: 2, FromCollector: true})
	if err != nil {
		t.Fatal(err)
	}
	if !fc.lastQ.WithPredictions {
		t.Fatal("modeler did not request collector predictions")
	}
	if math.Abs(infos[0].Predicted-1e6) > 1 {
		t.Fatalf("predicted %v, want 1e6 (10e6 cap - 9e6 forecast)", infos[0].Predicted)
	}
	if infos[0].ErrVar != 2e10 {
		t.Fatalf("errvar %v, want the horizon-2 forecast errvar", infos[0].ErrVar)
	}
}

func TestFlowPredictionFromCollectorFallsBack(t *testing.T) {
	// No forecast for the link: client-side fitting over history kicks
	// in even with FromCollector set.
	fc := &fakeColl{histGen: steadyHistory(8e6, 200)}
	m := New(Config{Collector: fc})
	infos, err := m.GetFlowsContext(context.Background(), []Flow{{Src: a("10.0.1.1"), Dst: a("10.0.2.1")}},
		FlowOptions{Predict: true, Horizon: 3, FromCollector: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(infos[0].Predicted-2e6) > 2e5 {
		t.Fatalf("fallback predicted %v, want ~2e6", infos[0].Predicted)
	}
}

func TestFlowPredictionHorizonBeyondForecast(t *testing.T) {
	// A horizon past the collector's forecast length uses the furthest
	// available step rather than failing.
	fc := &fakeColl{histGen: steadyHistory(8e6, 200)}
	fc.predGen = func() map[collector.HistKey]collector.Forecast {
		return map[collector.HistKey]collector.Forecast{
			{From: "r1", To: "r2"}: {Values: []float64{7e6}, ErrVar: []float64{1}},
		}
	}
	m := New(Config{Collector: fc})
	infos, err := m.GetFlowsContext(context.Background(), []Flow{{Src: a("10.0.1.1"), Dst: a("10.0.2.1")}},
		FlowOptions{Predict: true, Horizon: 10, FromCollector: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(infos[0].Predicted-3e6) > 1 {
		t.Fatalf("predicted %v, want 3e6 from the one-step forecast", infos[0].Predicted)
	}
}

// loadColl fakes a host load collector.
type loadColl struct {
	hist map[collector.HistKey][]collector.Sample
	pred map[collector.HistKey]collector.Forecast
}

func (l *loadColl) Name() string { return "hostload" }
func (l *loadColl) Collect(q collector.Query) (*collector.Result, error) {
	g := topology.NewGraph()
	for _, h := range q.Hosts {
		g.AddNode(topology.Node{ID: h.String(), Kind: topology.HostNode})
	}
	res := &collector.Result{Graph: g}
	if q.WithHistory {
		res.History = l.hist
	}
	if q.WithPredictions {
		res.Predictions = l.pred
	}
	return res, nil
}

func TestHostLoadFromCollectorForecast(t *testing.T) {
	key := collector.HistKey{From: "10.0.1.1", To: "cpu"}
	lc := &loadColl{
		hist: map[collector.HistKey][]collector.Sample{
			key: {{Bits: 1.2}, {Bits: 1.4}},
		},
		pred: map[collector.HistKey]collector.Forecast{
			key: {Values: []float64{1.5, 1.6, 1.7}, ErrVar: []float64{0.1, 0.2, 0.3}},
		},
	}
	m := New(Config{Collector: &fakeColl{}, HostLoad: lc})
	info, err := m.HostLoadContext(context.Background(), a("10.0.1.1"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Current != 1.4 {
		t.Fatalf("current = %v", info.Current)
	}
	if len(info.Forecast.Values) != 2 || info.Forecast.Values[1] != 1.6 {
		t.Fatalf("forecast = %+v", info.Forecast)
	}
}

func TestHostLoadClientSideFallback(t *testing.T) {
	key := collector.HistKey{From: "10.0.1.1", To: "cpu"}
	samples := make([]collector.Sample, 200)
	for i := range samples {
		samples[i] = collector.Sample{Bits: 0.8}
	}
	lc := &loadColl{hist: map[collector.HistKey][]collector.Sample{key: samples}}
	m := New(Config{Collector: &fakeColl{}, HostLoad: lc})
	info, err := m.HostLoadContext(context.Background(), a("10.0.1.1"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Forecast.Values) != 3 || math.Abs(info.Forecast.Values[0]-0.8) > 1e-9 {
		t.Fatalf("fallback forecast = %+v", info.Forecast)
	}
}

func TestHostLoadUnconfigured(t *testing.T) {
	m := New(Config{Collector: &fakeColl{}})
	if _, err := m.HostLoadContext(context.Background(), a("10.0.1.1"), 1); err == nil {
		t.Fatal("HostLoad without a collector succeeded")
	}
}

func TestHostLoadNoSamplesYet(t *testing.T) {
	lc := &loadColl{}
	m := New(Config{Collector: &fakeColl{}, HostLoad: lc})
	if _, err := m.HostLoadContext(context.Background(), a("10.0.1.1"), 1); err == nil {
		t.Fatal("HostLoad with no samples succeeded")
	}
}
