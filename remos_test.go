package remos_test

import (
	"context"
	"math"
	"net/netip"
	"testing"
	"time"

	"remos"
	"remos/internal/core"
	"remos/internal/netsim"
	"remos/internal/proto"
	"remos/internal/sim"
)

// stack builds the full system — emulated two-site network, agents,
// collectors, masters — and returns the pieces end-to-end tests use.
func stack(t testing.TB) (*core.Deployment, map[string]*netsim.Device) {
	t.Helper()
	return stackOpts(t, core.Options{})
}

// stackOpts is stack with explicit deployment options (observability
// tests pass a metrics registry).
func stackOpts(t testing.TB, opts core.Options) (*core.Deployment, map[string]*netsim.Device) {
	t.Helper()
	s := sim.NewSim()
	n := netsim.New(s)
	d := map[string]*netsim.Device{}
	for _, h := range []string{"app", "peer", "benchC", "benchE", "srv"} {
		d[h] = n.AddHost(h)
	}
	d["swC"] = n.AddSwitch("swC")
	d["swE"] = n.AddSwitch("swE")
	d["rC"] = n.AddRouter("rC")
	d["rE"] = n.AddRouter("rE")
	n.Connect(d["app"], d["swC"], 100e6, time.Millisecond)
	n.Connect(d["peer"], d["swC"], 100e6, time.Millisecond)
	n.Connect(d["benchC"], d["swC"], 100e6, time.Millisecond)
	n.Connect(d["swC"], d["rC"], 1e9, time.Millisecond)
	n.Connect(d["rC"], d["rE"], 8e6, 40*time.Millisecond)
	n.Connect(d["rE"], d["swE"], 1e9, time.Millisecond)
	n.Connect(d["benchE"], d["swE"], 100e6, time.Millisecond)
	n.Connect(d["srv"], d["swE"], 100e6, time.Millisecond)
	n.AssignSubnets()
	n.ComputeRoutes()
	dep := core.NewDeployment(s, n, opts)
	mustSite := func(spec core.SiteSpec) {
		if _, err := dep.AddSite(spec); err != nil {
			t.Fatal(err)
		}
	}
	mustSite(core.SiteSpec{Name: "cmu", Switches: []*netsim.Device{d["swC"]}, BenchHost: d["benchC"]})
	mustSite(core.SiteSpec{Name: "eth", Switches: []*netsim.Device{d["swE"]}, BenchHost: d["benchE"]})
	if err := dep.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := dep.MeasureAllBenchmarks(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Stop)
	return dep, d
}

func dial(t *testing.T, target string) *remos.Connection {
	t.Helper()
	conn, err := remos.Dial(target)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestEndToEndInProcess(t *testing.T) {
	dep, d := stack(t)
	m := remos.NewModelerConfig(remos.ModelerConfig{Collector: dep.Sites["cmu"].Master})
	bw, err := m.AvailableBandwidthContext(context.Background(), d["app"].Addr(), d["srv"].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bw-8e6) > 1e6 {
		t.Fatalf("cross-site bandwidth %v, want ~8e6", bw)
	}
	// Same-LAN query: no WAN involvement, full local capacity.
	bw, err = m.AvailableBandwidthContext(context.Background(), d["app"].Addr(), d["peer"].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bw-100e6) > 1e6 {
		t.Fatalf("LAN bandwidth %v, want ~100e6", bw)
	}
}

func TestEndToEndOverASCIIProtocol(t *testing.T) {
	dep, d := stack(t)
	_, srv := served(t, dep.Sim, dep.Sites["cmu"].Master, nil, nil, nil)
	m := dial(t, "tcp://"+srv.ASCIIAddr)
	bw, err := m.AvailableBandwidthContext(context.Background(), d["app"].Addr(), d["srv"].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bw-8e6) > 1e6 {
		t.Fatalf("over ASCII protocol: %v, want ~8e6", bw)
	}
}

func TestEndToEndOverXMLProtocol(t *testing.T) {
	dep, d := stack(t)
	_, srv := served(t, dep.Sim, dep.Sites["cmu"].Master, nil, nil, nil)
	m := dial(t, "http://"+srv.HTTPAddr)
	g, err := m.GetTopologyContext(context.Background(), []netip.Addr{d["app"].Addr(), d["srv"].Addr()}, remos.TopologyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Path(d["app"].Addr().String(), d["srv"].Addr().String()); err != nil {
		t.Fatalf("no end-to-end path over XML protocol: %v", err)
	}
}

func TestEndToEndPredictionOverProtocol(t *testing.T) {
	dep, d := stack(t)
	// Put steady load on the WAN and let the poller build history.
	if _, err := dep.Net.StartFlow(d["peer"], d["srv"], netsim.FlowSpec{Demand: 3e6}); err != nil {
		t.Fatal(err)
	}
	m0 := remos.NewModelerConfig(remos.ModelerConfig{Collector: dep.Sites["cmu"].Master})
	// Prime monitoring, then accumulate history.
	if _, err := m0.AvailableBandwidthContext(context.Background(), d["app"].Addr(), d["srv"].Addr()); err != nil {
		t.Fatal(err)
	}
	dep.Sim.RunFor(10 * time.Minute)

	srv := &proto.TCPServer{Collector: dep.Sites["cmu"].Master}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m := dial(t, "tcp://"+addr)
	infos, err := m.GetFlowsContext(context.Background(), []remos.Flow{{Src: d["app"].Addr(), Dst: d["srv"].Addr()}},
		remos.FlowOptions{Predict: true, Horizon: 2, Model: "BM(32)"})
	if err != nil {
		t.Fatal(err)
	}
	// WAN 8e6 minus the 3e6 background: ~5e6 predicted.
	if math.Abs(infos[0].Predicted-5e6) > 1e6 {
		t.Fatalf("predicted %v, want ~5e6", infos[0].Predicted)
	}
}

func TestBestServerEndToEnd(t *testing.T) {
	dep, d := stack(t)
	m := remos.NewModelerConfig(remos.ModelerConfig{Collector: dep.Sites["cmu"].Master})
	ranks, err := m.BestServerContext(context.Background(), d["app"].Addr(),
		[]netip.Addr{d["srv"].Addr(), d["peer"].Addr()}, remos.FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ranks[0].Server != d["peer"].Addr() {
		t.Fatalf("best = %v, want LAN-local peer", ranks[0].Server)
	}
}

func TestParsePredictor(t *testing.T) {
	f, err := remos.ParsePredictor("ARIMA(4,1,4)")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "ARIMA(4,1,4)" {
		t.Fatalf("Name = %q", f.Name())
	}
	if _, err := remos.ParsePredictor("nonsense"); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestCollectorSidePredictionsOverProtocol(t *testing.T) {
	// The §2.3 streaming configuration end to end: collectors fit
	// streaming predictors per monitored link; the modeler, talking to
	// the master over the ASCII protocol, consumes their forecasts
	// instead of fitting client-side.
	s := sim.NewSim()
	n := netsim.New(s)
	app := n.AddHost("app")
	bench := n.AddHost("bench")
	srv := n.AddHost("srv")
	peer := n.AddHost("peer")
	sw := n.AddSwitch("sw")
	sw2 := n.AddSwitch("sw2")
	r1 := n.AddRouter("r1")
	r2 := n.AddRouter("r2")
	n.Connect(app, sw, 100e6, time.Millisecond)
	n.Connect(bench, sw, 100e6, time.Millisecond)
	n.Connect(peer, sw, 100e6, time.Millisecond)
	n.Connect(sw, r1, 1e9, time.Millisecond)
	n.Connect(r1, r2, 10e6, 10*time.Millisecond)
	n.Connect(r2, sw2, 1e9, time.Millisecond)
	n.Connect(srv, sw2, 100e6, time.Millisecond)
	n.AssignSubnets()
	n.ComputeRoutes()
	dep := core.NewDeployment(s, n, core.Options{})
	if _, err := dep.AddSite(core.SiteSpec{
		Name: "all", Switches: []*netsim.Device{sw, sw2}, BenchHost: bench,
		StreamPredict: "BM(16)",
	}); err != nil {
		t.Fatal(err)
	}
	if err := dep.Finish(); err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()

	if _, err := n.StartFlow(peer, srv, netsim.FlowSpec{Demand: 6e6}); err != nil {
		t.Fatal(err)
	}
	m0 := remos.NewModelerConfig(remos.ModelerConfig{Collector: dep.Sites["all"].Master})
	if _, err := m0.AvailableBandwidthContext(context.Background(), app.Addr(), srv.Addr()); err != nil {
		t.Fatal(err) // primes monitoring
	}
	s.RunFor(10 * time.Minute) // history + streaming fits

	tcpSrv := &proto.TCPServer{Collector: dep.Sites["all"].Master}
	addr, err := tcpSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcpSrv.Close()
	m := dial(t, "tcp://"+addr)
	infos, err := m.GetFlowsContext(context.Background(), []remos.Flow{{Src: app.Addr(), Dst: srv.Addr()}},
		remos.FlowOptions{Predict: true, Horizon: 2, FromCollector: true})
	if err != nil {
		t.Fatal(err)
	}
	// The WAN carries a steady 6e6: the collector-side forecast yields
	// ~4e6 available.
	if math.Abs(infos[0].Predicted-4e6) > 1e6 {
		t.Fatalf("collector-side predicted %v, want ~4e6", infos[0].Predicted)
	}
	if infos[0].ErrVar < 0 {
		t.Fatal("negative forecast error variance")
	}
}
