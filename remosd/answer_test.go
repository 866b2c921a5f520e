package remosd

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/core"
	"remos/internal/experiments"
	"remos/internal/modeler"
	"remos/internal/netsim"
	"remos/internal/proto"
	"remos/internal/serve"
	"remos/internal/sim"
	"remos/internal/topology"
	"remos/internal/watch"
)

// TestVerbsAgreeOnOneGeneration runs the daemon's serving planes over a
// real collector deployment of one LAN — h, h1 and h3 on sw1, h2 on sw2,
// both switches on router r — with cross traffic from h1 to h3 loading
// the first hop of h1->h, and a WATCH on h1->h that pushes on any
// change. At random instants about every 100 ms, the QUERY graph run
// through FlowAlloc and the FLOWS answer for h1->h must agree in rate
// and path, and both must be the last value the WATCH pushed. Partway
// through, h moves to sw2: the three verbs must follow it together.
func TestVerbsAgreeOnOneGeneration(t *testing.T) {
	s := sim.NewSim()
	n := netsim.New(s)
	r := n.AddRouter("r")
	sw1, sw2 := n.AddSwitch("sw1"), n.AddSwitch("sw2")
	n.Connect(sw1, r, 1e9, time.Millisecond)
	n.Connect(sw2, r, 1e9, time.Millisecond)
	h, h1, h2, h3 := n.AddHost("h"), n.AddHost("h1"), n.AddHost("h2"), n.AddHost("h3")
	for _, at := range []*netsim.Device{h, h1, h3} {
		n.Connect(at, sw1, 100e6, time.Millisecond)
	}
	n.Connect(h2, sw2, 100e6, time.Millisecond)
	n.AssignSubnets()
	n.ComputeRoutes()
	dep := core.NewDeployment(s, n, core.Options{})
	if _, err := dep.AddSite(core.SiteSpec{Name: "lan", Switches: []*netsim.Device{sw1, sw2}, PollInterval: time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := dep.Finish(); err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	if _, err := n.StartCrossTraffic(h1, h3, netsim.CrossTrafficSpec{Mean: 40e6, Jitter: 0.5, Period: 700 * time.Millisecond, Seed: 39}); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	p := newPlanes(t, cfg, s, dep.Sites["lan"].Master)
	src, dst := h1.Addr(), h.Addr()
	sub, err := p.Watch.Subscribe(watch.Spec{Src: src, Dst: dst, ChangeFrac: 1e-9, Buf: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close(nil)

	ctx := context.Background()
	req := []topology.FlowRequest{{Src: src.String(), Dst: dst.String()}}
	rng := rand.New(rand.NewSource(39))
	moveAt := s.Now().Add(30 * time.Second)
	var (
		watched, asked, disagree, moved int
		last                            float64 // the last value the WATCH pushed
		rates                           = map[float64]bool{}
		probe                           func()
	)
	probe = func() {
		for drained := false; !drained; {
			select {
			case u := <-sub.Updates():
				watched, last = watched+1, u.Avail
			default:
				drained = true
			}
		}
		if watched > 0 {
			asked++
			res, err := p.Answer.Collect(collector.Query{Hosts: []netip.Addr{src, dst}}.WithContext(ctx))
			if err != nil {
				t.Fatalf("QUERY: %v", err)
			}
			query, err := res.Graph.FlowAlloc(req)
			if err != nil {
				t.Fatalf("QUERY graph through FlowAlloc: %v", err)
			}
			flows, err := p.Answer.GetFlowsContext(ctx, []modeler.Flow{{Src: src, Dst: dst}}, modeler.FlowOptions{})
			if err != nil {
				t.Fatalf("FLOWS: %v", err)
			}
			q, f := query[0], flows[0]
			if q.Available != f.Available || !slices.Equal(q.Path, f.Path) || f.Available != last {
				disagree++
				if disagree <= 3 {
					t.Errorf("at %v: QUERY %.0f b/s over %v, FLOWS %.0f b/s over %v, last WATCH %.0f b/s",
						s.Now().Sub(moveAt), q.Available, q.Path, f.Available, f.Path, last)
				}
			}
			rates[f.Available] = true
			if s.Now().After(moveAt) && len(f.Path) == 5 {
				moved++
			}
		}
		s.After(time.Duration(1+rng.Int63n(int64(200*time.Millisecond))), probe)
	}
	s.After(0, probe)
	s.At(moveAt, func() { n.MoveHost(h, sw2, 10e6, time.Millisecond) })
	s.RunFor(time.Minute)
	t.Logf("%d instants, %d distinct rates, %d after the move on the new path, %d pushes", asked, len(rates), moved, watched)
	if disagree > 0 {
		t.Fatalf("%d of %d instants disagree", disagree, asked)
	}
	if asked < 400 || len(rates) < 5 || moved == 0 {
		t.Fatalf("%d instants, %d distinct rates, %d after the move on the new path: the run did not exercise the verbs",
			asked, len(rates), moved)
	}
}

// TestRemoteTopologyMatchesInProcess: a topology query answered in
// process by the planes' Modeler and the same query through a client
// Modeler over either wire protocol are one computation, so for every
// ordered host pair of the twosite scenario, raw and simplified, the
// three answers encode to the same bytes.
func TestRemoteTopologyMatchesInProcess(t *testing.T) {
	s := sim.NewSim()
	dep, hosts, err := buildScenario(s, "twosite", 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	if err := dep.MeasureAllBenchmarks(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	p := newPlanes(t, cfg, s, dep.Sites[firstSite(dep)].Master)
	srv, err := serve.Listen("127.0.0.1:0", "127.0.0.1:0", p.Answer, p.Watch, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote := map[string]*modeler.Modeler{
		"ascii": modeler.New(modeler.Config{Collector: &proto.TCPClient{Addr: srv.ASCIIAddr}}),
		"xml":   modeler.New(modeler.Config{Collector: &proto.HTTPClient{BaseURL: "http://" + srv.HTTPAddr}}),
	}

	ctx := context.Background()
	encode := func(m *modeler.Modeler, pair []netip.Addr, opt modeler.TopologyOptions) []byte {
		t.Helper()
		g, err := m.GetTopologyContext(ctx, pair, opt)
		if err != nil {
			t.Fatalf("%v raw=%t: %v", pair, opt.Raw, err)
		}
		var b bytes.Buffer
		if err := g.EncodeText(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	answers := 0
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			pair := []netip.Addr{a.Addr(), b.Addr()}
			for _, raw := range []bool{false, true} {
				opt := modeler.TopologyOptions{Raw: raw}
				want := encode(p.Answer, pair, opt)
				for name, m := range remote {
					if got := encode(m, pair, opt); !bytes.Equal(got, want) {
						t.Fatalf("%s -> %s raw=%t over %s:\n%s\nin process:\n%s", a.Name, b.Name, raw, name, got, want)
					}
				}
				answers++
			}
		}
	}
	if answers != 40 {
		t.Fatalf("compared %d answers, want 40", answers)
	}
}

// TestFlowAnswersMatchGroundTruth is the flow answer paths' ground-truth
// gate. On an idle 64-host campus, 60 seeded batches of 1 to 8 flows
// with random demands are asked six ways: an in-process Modeler that
// walks the collectors, the planes' snapshot-backed Modeler, FLOWS over
// each wire protocol, and QUERY over each wire protocol with the reply's
// graph run through Graph.FlowAlloc. All six must agree exactly on every
// flow's path, latency and jitter, and every rate must be the emulator's
// own graph's whole-graph allocation, to the bench oracle's 1e-9
// relative slack. Then 24 host pairs are watched over ASCII and over SSE,
// served from the planes' watch registry, and each watch's first push
// must carry the emulator's bottleneck bandwidth for its pair, to the
// same slack. Then the host the most watches touch moves onto its wing's
// agg switch over a 10 Mb/s link: each watch touching it must carry, as
// its last push, the moved fabric's bottleneck, and no other watch may
// push. Last, two federated daemons split the twosite scenario,
// and for every ordered host pair each daemon's FLOWS and QUERY over
// both protocols must give a lone flow the rate and path the emulator's
// graph of an idle copy of the fabric gives it.
func TestFlowAnswersMatchGroundTruth(t *testing.T) {
	c, err := experiments.BuildCampus(64)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Dep.Stop()
	truth, err := netsim.TopologyGraph(c.Net)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	p := newPlanes(t, cfg, c.Sim, c.Site.Master)
	srv, err := serve.Listen("127.0.0.1:0", "127.0.0.1:0", p.Answer, p.Watch, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tcpCl := &proto.TCPClient{Addr: srv.ASCIIAddr}
	defer tcpCl.Close()
	httpCl := &proto.HTTPClient{BaseURL: "http://" + srv.HTTPAddr}
	walk := modeler.New(modeler.Config{Collector: c.Site.Master})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	noPredict := modeler.FlowOptions{}
	paths := []answerPath{
		{"walk", func(flows []modeler.Flow, _ []topology.FlowRequest) ([]modeler.FlowInfo, error) {
			return walk.GetFlowsContext(ctx, flows, noPredict)
		}},
		{"snapshot", func(flows []modeler.Flow, _ []topology.FlowRequest) ([]modeler.FlowInfo, error) {
			return p.Answer.GetFlowsContext(ctx, flows, noPredict)
		}},
		{"ascii FLOWS", func(flows []modeler.Flow, _ []topology.FlowRequest) ([]modeler.FlowInfo, error) {
			return tcpCl.Flows(ctx, flows)
		}},
		{"xml FLOWS", func(flows []modeler.Flow, _ []topology.FlowRequest) ([]modeler.FlowInfo, error) {
			return httpCl.Flows(ctx, flows)
		}},
		{"ascii QUERY", viaQuery(ctx, tcpCl)},
		{"xml QUERY", viaQuery(ctx, httpCl)},
	}

	rng := rand.New(rand.NewSource(40))
	asked, wrong := 0, 0
	rates := map[float64]bool{}
	for batch := 0; batch < 60; batch++ {
		flows := make([]modeler.Flow, 1+rng.Intn(8))
		reqs := make([]topology.FlowRequest, len(flows))
		for i := range flows {
			src := rng.Intn(len(c.Hosts))
			dst := (src + 1 + rng.Intn(len(c.Hosts)-1)) % len(c.Hosts)
			f := modeler.Flow{Src: c.Hosts[src].Addr(), Dst: c.Hosts[dst].Addr()}
			if rng.Intn(3) > 0 {
				f.Demand = float64(1+rng.Intn(150)) * 1e6
			}
			flows[i] = f
			reqs[i] = topology.FlowRequest{Src: f.Src.String(), Dst: f.Dst.String(), Demand: f.Demand}
		}
		want, err := truth.FlowAlloc(reqs)
		if err != nil {
			t.Fatalf("batch %d: ground truth: %v", batch, err)
		}
		for _, w := range want {
			rates[w.Available] = true
		}
		var first []modeler.FlowInfo
		for _, path := range paths {
			got, err := path.ask(flows, reqs)
			if err != nil {
				t.Fatalf("batch %d over %s: %v", batch, path.name, err)
			}
			if len(got) != len(flows) {
				t.Fatalf("batch %d over %s: %d answers for %d flows", batch, path.name, len(got), len(flows))
			}
			if first == nil {
				first = got
			}
			for i, g := range got {
				f := first[i]
				if !slices.Equal(g.Path, f.Path) || g.Latency != f.Latency || g.Jitter != f.Jitter {
					t.Fatalf("batch %d flow %d: %s says %v, %v, %v; %s says %v, %v, %v", batch, i,
						path.name, g.Path, g.Latency, g.Jitter, paths[0].name, f.Path, f.Latency, f.Jitter)
				}
				if w := want[i].Available; !nearTruth(g.Available, w) {
					wrong++
					t.Errorf("batch %d flow %d over %s: %.9g b/s, ground truth %.9g", batch, i, path.name, g.Available, w)
				}
				asked++
			}
		}
	}
	t.Logf("%d flow answers, %d off the ground truth, %d distinct true rates", asked, wrong, len(rates))
	if len(rates) < 20 {
		t.Fatalf("only %d distinct true rates: the batches did not exercise the allocation", len(rates))
	}

	// The watch plane: every watch is open before the poll plane polls
	// its pair, so its first push is the init push of a polled generation.
	type watched struct {
		name    string
		spec    watch.Spec
		updates <-chan watch.Update
	}
	var watches []watched
	for i := 0; i < 24; i++ {
		src := c.Hosts[rng.Intn(len(c.Hosts))]
		dst := c.Hosts[(slices.Index(c.Hosts, src)+1+rng.Intn(len(c.Hosts)-1))%len(c.Hosts)]
		spec := watch.Spec{Src: src.Addr(), Dst: dst.Addr(), ChangeFrac: 1e-9}
		for name, open := range map[string]func(context.Context, watch.Spec) (<-chan watch.Update, error){
			"ascii WATCH": tcpCl.Watch, "sse WATCH": httpCl.Watch,
		} {
			ch, err := open(ctx, spec)
			if err != nil {
				t.Fatalf("%s %v -> %v: %v", name, spec.Src, spec.Dst, err)
			}
			watches = append(watches, watched{name, spec, ch})
		}
	}
	c.Sim.RunFor(3 * cfg.SchedInterval)
	for _, w := range watches {
		var u watch.Update
		select {
		case u = <-w.updates:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s %v -> %v: no push", w.name, w.spec.Src, w.spec.Dst)
		}
		want, err := loneFlowRate(truth, w.spec.Src.String(), w.spec.Dst.String())
		if err != nil {
			t.Fatalf("ground truth for %v -> %v: %v", w.spec.Src, w.spec.Dst, err)
		}
		if u.Err != nil || u.Reason != watch.ReasonInit || !nearTruth(u.Avail, want) {
			t.Errorf("%s %v -> %v: first push %+v, ground truth %.9g b/s", w.name, w.spec.Src, w.spec.Dst, u, want)
		}
	}

	// A generation change: the host the most watches touch moves onto its
	// wing's agg switch over a 10 Mb/s link. Every watch touching it must
	// end on the moved fabric's bottleneck, and no other watch may push.
	count := map[*netsim.Device]int{}
	var moved *netsim.Device
	for _, h := range c.Hosts {
		for _, w := range watches {
			if w.spec.Src == h.Addr() || w.spec.Dst == h.Addr() {
				count[h]++
			}
		}
		if moved == nil || count[h] > count[moved] {
			moved = h
		}
	}
	wing, _, _ := strings.Cut(strings.TrimPrefix(moved.Name, "h"), "-")
	c.Net.MoveHost(moved, c.Net.Device("agg"+wing), 10e6, time.Millisecond)
	movedTruth, err := netsim.TopologyGraph(c.Net)
	if err != nil {
		t.Fatal(err)
	}
	touches := func(w watched) bool { return w.spec.Src == moved.Addr() || w.spec.Dst == moved.Addr() }
	last := make([]*watch.Update, len(watches)) // each watch's last push since the move
	settled := func() bool {
		done := true
		for i, w := range watches {
			for drained := false; !drained; {
				select {
				case u, ok := <-w.updates:
					drained = !ok
					if ok {
						last[i] = &u
					}
				default:
					drained = true
				}
			}
			if touches(w) {
				want, err := loneFlowRate(movedTruth, w.spec.Src.String(), w.spec.Dst.String())
				done = done && err == nil && last[i] != nil && last[i].Err == nil && nearTruth(last[i].Avail, want)
			}
		}
		return done
	}
	for deadline := time.Now().Add(30 * time.Second); !settled(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			for i, w := range watches {
				if touches(w) {
					t.Errorf("%s %v -> %v: last push since %s moved %+v", w.name, w.spec.Src, w.spec.Dst, moved.Name, last[i])
				}
			}
			t.Fatalf("the watches touching %s never carried the moved fabric's bottleneck", moved.Name)
		}
		c.Sim.RunFor(250 * time.Millisecond)
	}
	// Two more poll caps: the truth stays the last push, and the watches
	// the move does not touch stay quiet.
	c.Sim.RunFor(2 * serve.PollCap(cfg.MaxStale, cfg.SchedInterval))
	time.Sleep(100 * time.Millisecond)
	if !settled() {
		t.Errorf("a watch touching %s moved off the truth after settling", moved.Name)
	}
	for i, w := range watches {
		if !touches(w) && last[i] != nil {
			t.Errorf("%s %v -> %v: pushed %+v, but the move of %s does not touch the pair", w.name, w.spec.Src, w.spec.Dst, *last[i], moved.Name)
		}
	}
	t.Logf("%d of %d watches touch %s", count[moved], len(watches), moved.Name)

	// The federated legs: two daemons split the twosite scenario into two
	// domains and replicate their leases to each other. Federated mode
	// runs no background traffic, so for every ordered host pair each
	// daemon's FLOWS and QUERY, over both protocols, must give a lone
	// flow the idle fabric's whole-graph rate over the same path.
	fcfg := DefaultConfig()
	fcfg.ListenASCII, fcfg.ListenHTTP, fcfg.ListenObs, fcfg.ListenHostLoad = "127.0.0.1:0", "127.0.0.1:0", "", ""
	fcfg.FedRefresh, fcfg.FedLeaseTTL = 100*time.Millisecond, 2*time.Second
	sn, err := buildNetwork(sim.NewSim(), fcfg.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	fedTruth, err := netsim.TopologyGraph(sn.n)
	if err != nil {
		t.Fatal(err)
	}
	var legs []answerPath
	for _, d := range StartFederatedPair(t, fcfg) {
		tcp := &proto.TCPClient{Addr: d.ASCIIAddr}
		defer tcp.Close()
		web := &proto.HTTPClient{BaseURL: "http://" + d.HTTPAddr}
		legs = append(legs,
			answerPath{d.FedDomain + " ascii FLOWS", func(flows []modeler.Flow, _ []topology.FlowRequest) ([]modeler.FlowInfo, error) {
				return tcp.Flows(ctx, flows)
			}},
			answerPath{d.FedDomain + " xml FLOWS", func(flows []modeler.Flow, _ []topology.FlowRequest) ([]modeler.FlowInfo, error) {
				return web.Flows(ctx, flows)
			}},
			answerPath{d.FedDomain + " ascii QUERY", viaQuery(ctx, tcp)},
			answerPath{d.FedDomain + " xml QUERY", viaQuery(ctx, web)})
	}
	// Both leases have replicated once every leg answers the cross-domain
	// pair app1 -> srv (hosts 0 and 2, on either side of the WAN link).
	cross := []modeler.Flow{{Src: sn.hosts[0].Addr(), Dst: sn.hosts[2].Addr()}}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		var err error
		for _, leg := range legs {
			if _, err = leg.ask(cross, []topology.FlowRequest{{Src: cross[0].Src.String(), Dst: cross[0].Dst.String()}}); err != nil {
				break
			}
		}
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the federated pair never answered the cross-domain pair: %v", err)
		}
	}
	fedAsked := 0
	for _, a := range sn.hosts {
		for _, b := range sn.hosts {
			if a == b {
				continue
			}
			flows := []modeler.Flow{{Src: a.Addr(), Dst: b.Addr()}}
			reqs := []topology.FlowRequest{{Src: a.Addr().String(), Dst: b.Addr().String()}}
			want, err := fedTruth.FlowAlloc(reqs)
			if err != nil {
				t.Fatalf("ground truth for %s -> %s: %v", a.Name, b.Name, err)
			}
			for _, leg := range legs {
				got, err := leg.ask(flows, reqs)
				if err != nil {
					t.Fatalf("%s -> %s over %s: %v", a.Name, b.Name, leg.name, err)
				}
				if len(got) != 1 || !nearTruth(got[0].Available, want[0].Available) || !slices.Equal(got[0].Path, want[0].Path) {
					t.Errorf("%s -> %s over %s: %+v; ground truth %.9g b/s over %v",
						a.Name, b.Name, leg.name, got, want[0].Available, want[0].Path)
				}
				fedAsked++
			}
		}
	}
	if fedAsked != 160 {
		t.Fatalf("asked %d federated answers, want 20 pairs over 8 legs", fedAsked)
	}
}

// TestFlowsExchangesDoNotAlias is the FLOWS exchange's aliasing gate.
// The ASCII server decodes every request of a connection into one flow
// buffer, and the client cuts a reply's hop IDs and paths from one
// string and one slab, so both sides hand out memory they reuse or
// share. One ASCII connection carries 140 requests of 1 to 16 flows with
// an ERR every tenth; a second connection asks its own mix alongside.
// The server's answerer writes over every flows slice it is handed once
// its answer is made, and reports a slice that changed while it held
// it. On one generation, each ASCII answer must equal the in-process
// Modeler's field for field, and the XML answer must too but for the
// demand, which the XML reply does not echo. Every path the client
// returned must be unchanged 100 exchanges later.
func TestFlowsExchangesDoNotAlias(t *testing.T) {
	c, err := experiments.BuildCampus(32)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Dep.Stop()
	p := newPlanes(t, DefaultConfig(), c.Sim, c.Site.Master)
	ctx := context.Background()
	// One walk covers every host, so every answer below reads its
	// generation.
	warm := make([]modeler.Flow, len(c.Hosts))
	for i, h := range c.Hosts {
		warm[i] = modeler.Flow{Src: h.Addr(), Dst: c.Hosts[(i+1)%len(c.Hosts)].Addr()}
	}
	if _, err := p.Answer.GetFlowsContext(ctx, warm, modeler.FlowOptions{}); err != nil {
		t.Fatal(err)
	}
	gen := p.Store.Current()

	scribbler := &scribblingAnswerer{inner: p.Answer}
	asciiSrv := &proto.TCPServer{Collector: p.Answer, Flows: scribbler}
	asciiAddr, err := asciiSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer asciiSrv.Close()
	xmlSrv := &proto.HTTPServer{Collector: p.Answer, Flows: p.Answer}
	xmlAddr, err := xmlSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer xmlSrv.Close()
	xmlCl := &proto.HTTPClient{BaseURL: "http://" + xmlAddr}

	unknown := []modeler.Flow{{Src: netip.MustParseAddr("203.0.113.9"), Dst: c.Hosts[0].Addr()}}
	mix := func(rng *rand.Rand) []modeler.Flow {
		flows := make([]modeler.Flow, 1+rng.Intn(16))
		for i := range flows {
			src := rng.Intn(len(c.Hosts))
			dst := (src + 1 + rng.Intn(len(c.Hosts)-1)) % len(c.Hosts)
			flows[i] = modeler.Flow{Src: c.Hosts[src].Addr(), Dst: c.Hosts[dst].Addr()}
			if rng.Intn(3) > 0 {
				flows[i].Demand = float64(1+rng.Intn(150)) * 1e6
			}
		}
		return flows
	}
	// ask sends exchange i of a connection's mix: the i-th flows, or the
	// unknown host every tenth. It returns what the client answered and a
	// copy of it, or nil for the ERR.
	ask := func(cl *proto.TCPClient, rng *rand.Rand, i int) (got, kept []modeler.FlowInfo, err error) {
		if i%10 == 5 {
			if _, err := cl.Flows(ctx, unknown); err == nil {
				return nil, nil, fmt.Errorf("exchange %d: FLOWS for %v answered", i, unknown[0].Src)
			}
			return nil, nil, nil
		}
		flows := mix(rng)
		if got, err = cl.Flows(ctx, flows); err != nil {
			return nil, nil, fmt.Errorf("exchange %d: ascii: %v", i, err)
		}
		want, err := p.Answer.GetFlowsContext(ctx, flows, modeler.FlowOptions{})
		if err != nil {
			return nil, nil, fmt.Errorf("exchange %d: in process: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			return nil, nil, fmt.Errorf("exchange %d: ascii answered\n%+v\nin process\n%+v", i, got, want)
		}
		kept = slices.Clone(got)
		for j := range kept {
			kept[j].Path = slices.Clone(got[j].Path)
		}
		return got, kept, nil
	}

	const exchanges = 140
	other := make(chan error, 1)
	go func() {
		cl := &proto.TCPClient{Addr: asciiAddr}
		defer cl.Close()
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < exchanges; i++ {
			if _, _, err := ask(cl, rng, i); err != nil {
				other <- fmt.Errorf("second connection: %v", err)
				return
			}
		}
		other <- nil
	}()

	cl := &proto.TCPClient{Addr: asciiAddr}
	defer cl.Close()
	rng := rand.New(rand.NewSource(41))
	type answer struct {
		at        int
		got, kept []modeler.FlowInfo
	}
	var answers []answer
	for i := 0; i < exchanges; i++ {
		got, kept, err := ask(cl, rng, i)
		if err != nil {
			t.Fatal(err)
		}
		if got == nil {
			continue
		}
		answers = append(answers, answer{i, got, kept})
		flows := make([]modeler.Flow, len(got))
		for j := range got {
			flows[j] = got[j].Flow
		}
		overXML, err := xmlCl.Flows(ctx, flows)
		if err != nil {
			t.Fatalf("exchange %d: xml: %v", i, err)
		}
		for j := range overXML {
			overXML[j].Flow.Demand = flows[j].Demand
		}
		if !reflect.DeepEqual(overXML, kept) {
			t.Fatalf("exchange %d: xml answered\n%+v\nascii\n%+v", i, overXML, kept)
		}
	}
	if err := <-other; err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, a := range answers {
		if a.at+100 >= exchanges {
			break
		}
		if !reflect.DeepEqual(a.got, a.kept) {
			t.Fatalf("exchange %d's answer changed over the 100 exchanges after it:\n%+v\nwas\n%+v", a.at, a.got, a.kept)
		}
		checked++
	}
	if n := scribbler.changed.Load(); n > 0 {
		t.Fatalf("%d flows slices changed while the answerer held them", n)
	}
	if p.Store.Current() != gen {
		t.Fatalf("the snapshot moved on from generation %v to %v: the answers were not of one", gen.Epoch(), p.Store.Current().Epoch())
	}
	if checked < 30 {
		t.Fatalf("checked %d answers 100 exchanges later, want at least 30", checked)
	}
}

// scribblingAnswerer is a FlowAnswerer that breaks the contract's
// spirit as far as a test can: once inner has answered, it writes over
// the flows it was handed, so a server that read a request after its
// answerer returned would read the scribble. It counts the slices that
// changed between its call and inner's answer, as they would if the
// server reused one buffer for two requests in flight. It scribbles
// before returning rather than after: a write after the return would
// race with the server's next decode into the same buffer, which the
// contract allows.
type scribblingAnswerer struct {
	inner   proto.FlowAnswerer
	changed atomic.Int64
}

func (s *scribblingAnswerer) GetFlowsContext(ctx context.Context, flows []modeler.Flow, opt modeler.FlowOptions) ([]modeler.FlowInfo, error) {
	asked := slices.Clone(flows)
	infos, err := s.inner.GetFlowsContext(ctx, flows, opt)
	if !slices.Equal(flows, asked) {
		s.changed.Add(1)
	}
	for i := range flows {
		flows[i] = modeler.Flow{Src: netip.MustParseAddr("192.0.2.1"), Dst: netip.MustParseAddr("192.0.2.2"), Demand: -1}
	}
	return infos, err
}

// newPlanes assembles cfg's serving planes over master on s, as Start
// does, and closes them when the test ends.
func newPlanes(t *testing.T, cfg Config, s sim.Scheduler, master collector.Interface) *serve.Planes {
	p := serve.NewPlanes(s, master, cfg.MaxStale, cfg.SchedInterval, nil)
	t.Cleanup(p.Close)
	return p
}

// answerPath is one way of asking for flows: a Modeler, a wire FLOWS, or
// a wire QUERY whose graph runs through FlowAlloc.
type answerPath struct {
	name string
	ask  func(flows []modeler.Flow, reqs []topology.FlowRequest) ([]modeler.FlowInfo, error)
}

// viaQuery answers flows by asking cl for the flows' hosts and running
// the reply's graph through Graph.FlowAlloc.
func viaQuery(ctx context.Context, cl collector.Interface) func([]modeler.Flow, []topology.FlowRequest) ([]modeler.FlowInfo, error) {
	return func(flows []modeler.Flow, reqs []topology.FlowRequest) ([]modeler.FlowInfo, error) {
		var hosts []netip.Addr
		for _, f := range flows {
			hosts = append(hosts, f.Src, f.Dst)
		}
		res, err := cl.Collect(collector.Query{Hosts: hosts}.WithContext(ctx))
		if err != nil {
			return nil, err
		}
		preds, err := res.Graph.FlowAlloc(reqs)
		if err != nil {
			return nil, err
		}
		out := make([]modeler.FlowInfo, len(preds))
		for i, pr := range preds {
			out[i] = modeler.FlowInfo{Available: pr.Available, Latency: pr.Latency, Jitter: pr.Jitter, Path: pr.Path}
		}
		return out, nil
	}
}

// nearTruth reports whether a rate is the ground truth's, to the bench
// oracle's 1e-9 relative slack.
// loneFlowRate is the max-min rate of a lone flow from -> to on g: its
// path's bottleneck available bandwidth, what a watch on the pair pushes.
func loneFlowRate(g *topology.Graph, from, to string) (float64, error) {
	preds, err := g.FlowAlloc([]topology.FlowRequest{{Src: from, Dst: to}})
	if err != nil {
		return 0, err
	}
	return preds[0].Available, nil
}

func nearTruth(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}
