package remos_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remos"
	"remos/internal/admission"
	"remos/internal/collector"
	"remos/internal/core"
	"remos/internal/modeler"
	"remos/internal/netsim"
	"remos/internal/obs"
	"remos/internal/proto"
	"remos/internal/rerr"
	"remos/internal/serve"
	"remos/internal/sim"
)

// watchStack is the product's single-master serving stack, assembled as
// remosd assembles it (internal/serve), over the two-site deployment:
// master -> snapshot store -> poll plane -> watch registry, served over
// both wire protocols, with the snapshot-backed Modeler answering QUERY
// and FLOWS.
type watchStack struct {
	*serve.Planes
	dep  *core.Deployment
	d    map[string]*netsim.Device
	reg  *obs.Registry
	tcp  string // ASCII address
	http string // XML/SSE base URL
}

func newWatchStack(t *testing.T) *watchStack {
	t.Helper()
	reg := obs.New()
	dep, d := stackOpts(t, core.Options{Obs: reg})
	p, srv := served(t, dep.Sim, dep.Sites["cmu"].Master, nil, reg, nil)
	return &watchStack{Planes: p, dep: dep, d: d, reg: reg, tcp: srv.ASCIIAddr, http: "http://" + srv.HTTPAddr}
}

// served puts master behind the product's serving stack, assembled as
// remosd assembles it (internal/serve): the snapshot-backed planes on s's
// clock behind both wire servers, metered by ctrl (nil: ungated).
func served(t testing.TB, s sim.Scheduler, master collector.Interface, ctrl *admission.Controller, reg *obs.Registry, traces *obs.Ring) (*serve.Planes, *serve.Servers) {
	t.Helper()
	p := serve.NewPlanes(s, master, time.Minute, time.Second, reg)
	t.Cleanup(p.Close)
	srv, err := serve.Listen("127.0.0.1:0", "127.0.0.1:0", p.Answer, p.Watch, ctrl, reg, traces)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return p, srv
}

// pump advances simulated time in slices, yielding real time between
// slices so the real-goroutine wire machinery (TCP reads, SSE flushes)
// keeps up, until cond holds or the real deadline passes.
func pump(t *testing.T, dep *core.Deployment, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached while pumping the simulation")
		}
		dep.Sim.RunFor(250 * time.Millisecond)
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWatchPlaneEndToEnd is the PR's acceptance test: a netsim-scripted
// threshold crossing delivers an UPDATE over the ASCII transport and
// over HTTP/SSE without the clients issuing a second query, and a
// query for the scheduler-covered pair is then served from the
// generation the last poll made, with zero new SNMP exchanges.
func TestWatchPlaneEndToEnd(t *testing.T) {
	ws := newWatchStack(t)
	src, dst := ws.d["app"].Addr(), ws.d["srv"].Addr()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Subscribe over both transports: availability below 5e6 on the
	// app->srv path, whose WAN hop is 8e6.
	chans := map[string]<-chan remos.Update{}
	for name, target := range map[string]string{"ascii": "tcp://" + ws.tcp, "sse": ws.http} {
		conn, err := remos.Dial(target)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := conn.Watch(ctx, remos.WatchQuery{Src: src, Dst: dst}, remos.WatchBelow(5e6))
		if err != nil {
			t.Fatalf("%s watch: %v", name, err)
		}
		chans[name] = ch
	}
	// Both subscriptions registered server-side; the pair they share is
	// under background polling.
	pump(t, ws.dep, func() bool { return ws.Watch.Active() == 2 && ws.Poll.Targets() == 1 })

	// Baseline: the uncongested path reports ~8e6, above the threshold.
	baselines := map[string]remos.Update{}
	pump(t, ws.dep, func() bool {
		for name, ch := range chans {
			if _, ok := baselines[name]; ok {
				continue
			}
			select {
			case u := <-ch:
				baselines[name] = u
			default:
			}
		}
		return len(baselines) == 2
	})
	for name, u := range baselines {
		if u.Reason != "init" || math.Abs(u.Avail-8e6) > 1e6 {
			t.Fatalf("%s baseline = %+v, want init at ~8e6", name, u)
		}
	}

	// Perturb: a scripted 6e6 flow congests the 8e6 WAN hop, dropping
	// availability to ~2e6 — through the threshold.
	if _, err := ws.dep.Net.StartFlow(ws.d["peer"], ws.d["srv"], netsim.FlowSpec{Demand: 6e6}); err != nil {
		t.Fatal(err)
	}
	crossings := map[string]remos.Update{}
	pump(t, ws.dep, func() bool {
		for name, ch := range chans {
			if _, ok := crossings[name]; ok {
				continue
			}
			select {
			case u := <-ch:
				crossings[name] = u
			default:
			}
		}
		return len(crossings) == 2
	})
	for name, u := range crossings {
		if u.Reason != "below" || u.Avail > 5e6 {
			t.Fatalf("%s crossing = %+v, want below under 5e6", name, u)
		}
		if u.Src != src || u.Dst != dst {
			t.Fatalf("%s endpoints = %+v", name, u)
		}
	}

	// Warm-query guarantee: freeze the simulation (no more polls, no
	// counter movement except what we cause) and query the covered pair
	// through the public API. The scheduler's last poll made the
	// generation this query answers from, so no new SNMP exchanges happen.
	snmpBefore := ws.reg.Counter("remos_snmp_exchanges_total", "").Value()
	hitsBefore := ws.reg.Counter("remos_snapshot_hits_total", "").Value()
	m, err := remos.Dial("tcp://" + ws.tcp)
	if err != nil {
		t.Fatal(err)
	}
	qctx, qcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer qcancel()
	bw, err := m.AvailableBandwidthContext(qctx, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if bw > 5e6 {
		t.Fatalf("warm answer %v does not reflect the congested path", bw)
	}
	if got := ws.reg.Counter("remos_snmp_exchanges_total", "").Value(); got != snmpBefore {
		t.Fatalf("warm query cost %d new SNMP exchanges", got-snmpBefore)
	}
	if got := ws.reg.Counter("remos_snapshot_hits_total", "").Value(); got != hitsBefore+1 {
		t.Fatalf("snapshot hits %d -> %d, want exactly one warm hit", hitsBefore, got)
	}

	// The plane's own metrics are exposed for /metrics and remosctl
	// stats.
	var b strings.Builder
	ws.reg.WritePrometheus(&b)
	metrics := b.String()
	for _, want := range []string{
		"remos_watch_active 2",
		"remos_watch_updates_total",
		"remos_sched_polls_total",
		"remos_sched_targets 1",
		"remos_sched_poll_interval_seconds{target=",
		"remos_snapshot_applies_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("metrics:\n%s", metrics)
	}

	// Unsubscribe both: the scheduler drops the pair once the last watch
	// on it ends.
	cancel()
	pump(t, ws.dep, func() bool { return ws.Watch.Active() == 0 && ws.Poll.Targets() == 0 })
	for name, ch := range chans {
		deadline := time.After(5 * time.Second)
		for open := true; open; {
			select {
			case u, ok := <-ch:
				if !ok {
					open = false
					break
				}
				if u.Err != nil && !errors.Is(u.Err, context.Canceled) {
					t.Fatalf("%s terminal err = %v, want context.Canceled", name, u.Err)
				}
			case <-deadline:
				t.Fatalf("%s channel never closed after cancel", name)
			}
		}
	}
}

// TestMixedConcurrentServing drives every serving path of one stack at
// once — FLOWS, QUERYs, and both verbs over XML/HTTP — while the scheduler polls and watchers
// on both transports are pushed a baseline and then a threshold
// crossing. Every query completes with a usable answer and every watcher
// is pushed both updates with no gap in sequence; under -race this is
// the cross-plane locking proof.
func TestMixedConcurrentServing(t *testing.T) {
	ws := newWatchStack(t)
	src, dst, peer := ws.d["app"].Addr(), ws.d["srv"].Addr(), ws.d["peer"].Addr()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	mix := [][]netip.Addr{{src, dst}, {dst, src}, {peer, dst}, {src, peer}}
	warm := func(flows func(context.Context, []modeler.Flow) ([]modeler.FlowInfo, error), i int) error {
		p := mix[i%len(mix)]
		infos, err := flows(ctx, []modeler.Flow{{Src: p[0], Dst: p[1]}})
		if err == nil && (len(infos) != 1 || infos[0].Available <= 0 || len(infos[0].Path) < 2) {
			err = fmt.Errorf("unusable flow answer %+v", infos)
		}
		return err
	}
	collect := func(c collector.Interface, i int) error {
		q := collector.Query{Hosts: mix[i%len(mix)]}
		res, err := c.Collect(q)
		if err == nil && (res.Graph.NodeByAddr(q.Hosts[0].String()) == nil || res.Graph.NodeByAddr(q.Hosts[1].String()) == nil) {
			err = fmt.Errorf("QUERY answer lacks an endpoint of %v", q.Hosts)
		}
		return err
	}
	ascii1, ascii2, xml := &proto.TCPClient{Addr: ws.tcp}, &proto.TCPClient{Addr: ws.tcp}, &proto.HTTPClient{BaseURL: ws.http}
	clients := []func(i int) error{
		func(i int) error { return warm((&proto.TCPClient{Addr: ws.tcp}).Flows, i) }, // a connection per query
		func(i int) error { return warm(ascii1.Flows, i) },
		func(i int) error { return collect(ascii2, i) },
		func(i int) error {
			if i%2 == 0 {
				return warm(xml.Flows, i)
			}
			return collect(xml, i)
		},
	}
	stop := make(chan struct{})
	var clientWG sync.WaitGroup
	stopClients := sync.OnceFunc(func() {
		close(stop)
		clientWG.Wait()
	})
	defer stopClients()
	for c, query := range clients {
		clientWG.Add(1)
		go func(c int, query func(int) error) {
			defer clientWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := query(i); err != nil {
					t.Errorf("client %d query %d: %v", c, i, err)
					return
				}
			}
		}(c, query)
	}

	const watchers = 6
	var inits, belows atomic.Int64
	var watchWG sync.WaitGroup
	for w := 0; w < watchers; w++ {
		target := "tcp://" + ws.tcp
		if w%3 == 2 {
			target = ws.http
		}
		conn, err := remos.Dial(target)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := conn.Watch(ctx, remos.WatchQuery{Src: src, Dst: dst}, remos.WatchBelow(5e6))
		if err != nil {
			t.Fatalf("watcher %d: %v", w, err)
		}
		watchWG.Add(1)
		go func(w int) {
			defer watchWG.Done()
			next := int64(1)
			for u := range ch {
				if u.Err != nil {
					continue // the terminal update announcing our own cancel
				}
				if u.Seq != next || (u.Seq == 1) != (u.Reason == "init") {
					t.Errorf("watcher %d: update %d (%s) arrived where %d was due: a push was dropped", w, u.Seq, u.Reason, next)
				}
				next = u.Seq + 1
				switch u.Reason {
				case "init":
					inits.Add(1)
				case "below":
					belows.Add(1)
				}
			}
		}(w)
	}
	pump(t, ws.dep, func() bool { return inits.Load() == watchers })
	// A scripted 6e6 flow congests the 8e6 WAN hop under the threshold.
	if _, err := ws.dep.Net.StartFlow(ws.d["peer"], ws.d["srv"], netsim.FlowSpec{Demand: 6e6}); err != nil {
		t.Fatal(err)
	}
	pump(t, ws.dep, func() bool { return belows.Load() >= watchers })
	stopClients()
	cancel()
	watchWG.Wait()
}

// TestWatchPlaneServerShutdownTypedReason checks the daemon-shutdown
// path: closing the registry with a typed reason delivers it to every
// wire subscriber before their channels close.
func TestWatchPlaneServerShutdownTypedReason(t *testing.T) {
	ws := newWatchStack(t)
	src, dst := ws.d["app"].Addr(), ws.d["srv"].Addr()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	chans := map[string]<-chan remos.Update{}
	for name, target := range map[string]string{"ascii": "tcp://" + ws.tcp, "sse": ws.http} {
		conn, err := remos.Dial(target)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := conn.Watch(ctx, remos.WatchQuery{Src: src, Dst: dst}, remos.WatchOnChange(0.05))
		if err != nil {
			t.Fatal(err)
		}
		chans[name] = ch
	}
	pump(t, ws.dep, func() bool { return ws.Watch.Active() == 2 })

	ws.Watch.Close(rerr.Tagf(rerr.ErrCollectorUnavailable, "remosd shutting down"))
	for name, ch := range chans {
		sawTyped := false
		deadline := time.After(10 * time.Second)
		for open := true; open; {
			select {
			case u, ok := <-ch:
				if !ok {
					open = false
					break
				}
				if u.Err != nil && errors.Is(u.Err, remos.ErrCollectorUnavailable) {
					sawTyped = true
				}
			case <-deadline:
				t.Fatalf("%s: no close after shutdown", name)
			}
		}
		if !sawTyped {
			t.Fatalf("%s: shutdown reason lost its type", name)
		}
	}
}

// TestWatchPlaneLeaksNoGoroutines churns watch subscriptions through
// the whole stack and verifies the goroutine count settles back.
func TestWatchPlaneLeaksNoGoroutines(t *testing.T) {
	ws := newWatchStack(t)
	src, dst := ws.d["app"].Addr(), ws.d["srv"].Addr()

	connect := func(target string) *remos.Connection {
		conn, err := remos.Dial(target)
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	asciiConn := connect("tcp://" + ws.tcp)
	sseConn := connect(ws.http)

	// One warm-up round so lazy machinery is excluded from the baseline.
	warmCtx, warmCancel := context.WithCancel(context.Background())
	for _, c := range []*remos.Connection{asciiConn, sseConn} {
		if _, err := c.Watch(warmCtx, remos.WatchQuery{Src: src, Dst: dst}, remos.WatchOnChange(0.05)); err != nil {
			t.Fatal(err)
		}
	}
	pump(t, ws.dep, func() bool { return ws.Watch.Active() == 2 })
	warmCancel()
	pump(t, ws.dep, func() bool { return ws.Watch.Active() == 0 })
	time.Sleep(50 * time.Millisecond)

	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var got []<-chan remos.Update
		for _, c := range []*remos.Connection{asciiConn, sseConn} {
			ch, err := c.Watch(ctx, remos.WatchQuery{Src: src, Dst: dst}, remos.WatchOnChange(0.05))
			if err != nil {
				cancel()
				t.Fatal(err)
			}
			got = append(got, ch)
		}
		pump(t, ws.dep, func() bool { return ws.Watch.Active() == 2 })
		cancel()
		for _, ch := range got {
			for range ch {
			}
		}
		pump(t, ws.dep, func() bool { return ws.Watch.Active() == 0 && ws.Poll.Targets() == 0 })
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
