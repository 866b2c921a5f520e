package remos_test

import (
	"context"
	"errors"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remos"
	"remos/internal/admission"
	"remos/internal/collector"
	"remos/internal/proto"
	"remos/internal/rerr"
	"remos/internal/sim"
	"remos/internal/topology"
)

// linkCollector answers any query with a chain of 10e6 links between
// the queried hosts — just enough topology for bandwidth queries.
type linkCollector struct{}

func (linkCollector) Name() string { return "link" }

func (linkCollector) Collect(q collector.Query) (*collector.Result, error) {
	g := topology.NewGraph()
	for _, h := range q.Hosts {
		g.AddNode(topology.Node{ID: h.String(), Kind: topology.HostNode, Addr: h.String()})
	}
	for i := 0; i+1 < len(q.Hosts); i++ {
		g.AddLink(topology.Link{
			From: q.Hosts[i].String(), To: q.Hosts[i+1].String(),
			Capacity: 10e6, UtilFromTo: 1e6, Latency: 5 * time.Millisecond,
		})
	}
	return &collector.Result{Graph: g}, nil
}

// tenantStack is a pair of tenant-aware servers sharing one admission
// controller on a frozen sim clock, so shed decisions and retry hints
// are deterministic through the public API.
type tenantStack struct {
	ctrl *admission.Controller
	sim  *sim.Sim
	tcp  string
	http string
}

func newTenantStack(t *testing.T, cfg admission.Config) *tenantStack {
	t.Helper()
	ts := &tenantStack{sim: sim.NewSim()}
	cfg.Sched = ts.sim
	ts.ctrl = admission.New(cfg)
	t.Cleanup(ts.ctrl.Close)
	_, srv := served(t, ts.sim, linkCollector{}, ts.ctrl, nil, nil)
	ts.tcp, ts.http = "tcp://"+srv.ASCIIAddr, "http://"+srv.HTTPAddr
	return ts
}

func (ts *tenantStack) status(tenant string) admission.TenantStatus {
	for _, st := range ts.ctrl.Snapshot() {
		if st.Tenant == tenant {
			return st
		}
	}
	return admission.TenantStatus{}
}

// TestTenantDialEndToEnd drives the tenant options through the public
// API on both transports: metered queries succeed inside the burst,
// the shed surfaces as remos.ErrOverloaded with the server's exact
// retry hint, and bad credentials as remos.ErrUnauthenticated.
func TestTenantDialEndToEnd(t *testing.T) {
	cfg := admission.Config{
		Tenants: map[string]admission.TenantConfig{
			"app": {Key: "sekrit", Limits: admission.Limits{Rate: 0.5, Burst: 2}},
		},
	}
	src, dst := netip.MustParseAddr("10.0.1.1"), netip.MustParseAddr("10.0.2.2")
	for _, proto := range []string{"ascii", "xml"} {
		t.Run(proto, func(t *testing.T) {
			ts := newTenantStack(t, cfg)
			target := ts.tcp
			if proto == "xml" {
				target = ts.http
			}
			m, err := remos.Dial(target,
				remos.WithTenant("app", "sekrit"),
				remos.WithPriority(remos.PriorityInteractive))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := m.AvailableBandwidthContext(context.Background(), src, dst); err != nil {
					t.Fatalf("burst query %d: %v", i, err)
				}
			}
			_, err = m.AvailableBandwidthContext(context.Background(), src, dst)
			if !errors.Is(err, remos.ErrOverloaded) {
				t.Fatalf("shed error = %v, want remos.ErrOverloaded", err)
			}
			if d, ok := remos.RetryAfter(err); !ok || d != 2*time.Second {
				t.Fatalf("remos.RetryAfter = %v, %t; want 2s", d, ok)
			}
			// Back off exactly as told (on the injected clock) and the
			// same Modeler queries again.
			ts.sim.RunFor(2 * time.Second)
			if _, err := m.AvailableBandwidthContext(context.Background(), src, dst); err != nil {
				t.Fatalf("query after backoff: %v", err)
			}

			bad, err := remos.Dial(target, remos.WithTenant("app", "wrong"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bad.AvailableBandwidthContext(context.Background(), src, dst); !errors.Is(err, remos.ErrUnauthenticated) {
				t.Fatalf("bad-key error = %v, want remos.ErrUnauthenticated", err)
			}
		})
	}
}

// TestConnectionCloseReleasesWatchQuota is the quota-teardown
// acceptance test: Connection.Close cancels the connection's watches,
// the server frees the tenant's quota slots, and a fresh connection
// can subscribe again.
func TestConnectionCloseReleasesWatchQuota(t *testing.T) {
	cfg := admission.Config{
		Tenants: map[string]admission.TenantConfig{
			"app": {Limits: admission.Limits{MaxWatches: 1}},
		},
	}
	src, dst := netip.MustParseAddr("10.0.1.1"), netip.MustParseAddr("10.0.2.2")
	for _, proto := range []string{"ascii", "xml"} {
		t.Run(proto, func(t *testing.T) {
			ts := newTenantStack(t, cfg)
			target := ts.tcp
			if proto == "xml" {
				target = ts.http
			}
			dial := func() *remos.Connection {
				conn, err := remos.Dial(target, remos.WithTenant("app", ""))
				if err != nil {
					t.Fatal(err)
				}
				return conn
			}

			conn := dial()
			ch, err := conn.Watch(context.Background(),
				remos.WatchQuery{Src: src, Dst: dst}, remos.WatchBelow(5e6))
			if err != nil {
				t.Fatalf("first watch: %v", err)
			}
			waitCond(t, func() bool { return ts.status("app").Watches == 1 })

			other := dial()
			if _, err := other.Watch(context.Background(),
				remos.WatchQuery{Src: src, Dst: dst}, remos.WatchBelow(5e6)); !errors.Is(err, remos.ErrOverloaded) {
				t.Fatalf("quota not enforced: %v", err)
			}

			// Close tears the watch down without the caller cancelling
			// anything; the channel closes and the quota slot frees.
			if err := conn.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			drained := make(chan struct{})
			go func() {
				for range ch {
				}
				close(drained)
			}()
			select {
			case <-drained:
			case <-time.After(10 * time.Second):
				t.Fatal("watch channel never closed after Connection.Close")
			}
			waitCond(t, func() bool { return ts.status("app").Watches == 0 })

			if _, err := other.Watch(context.Background(),
				remos.WatchQuery{Src: src, Dst: dst}, remos.WatchBelow(5e6)); err != nil {
				t.Fatalf("slot not released after Close: %v", err)
			}
			if err := other.Close(); err != nil {
				t.Fatalf("close second conn: %v", err)
			}
			waitCond(t, func() bool { return ts.status("app").Watches == 0 })

			// A closed connection refuses new watches instead of leaking
			// an untracked subscription.
			if _, err := conn.Watch(context.Background(),
				remos.WatchQuery{Src: src, Dst: dst}, remos.WatchBelow(5e6)); err == nil {
				t.Fatal("watch on closed connection succeeded")
			}
		})
	}
}

// TestMisbehavingFleetIsShedNotDropped is the load-shedding proof: a
// batch-tier fleet sharing one token bucket hammers a TCPServer, ignoring
// every hint, beside unthrottled interactive tenants. On the frozen clock
// the bucket never refills, so the accounting is exact: the fleet is
// admitted exactly its burst, every other attempt is a typed
// ErrOverloaded carrying the server's retry-after hint, the server counts
// one shed per shed a client saw (a dropped connection would be redialled
// and counted twice), and every interactive query completes.
func TestMisbehavingFleetIsShedNotDropped(t *testing.T) {
	const burst, badClients, goodClients, goodQueries = 16, 6, 3, 200
	ts := newTenantStack(t, admission.Config{
		Tenants: map[string]admission.TenantConfig{
			"good":    {Limits: admission.Limits{Tier: admission.Interactive}},
			"crawler": {Limits: admission.Limits{Rate: 1, Burst: burst, Tier: admission.Batch}},
		},
	})
	addr := strings.TrimPrefix(ts.tcp, "tcp://")
	q := collector.Query{Hosts: []netip.Addr{netip.MustParseAddr("10.0.1.1"), netip.MustParseAddr("10.0.2.2")}}

	var admitted, shed atomic.Int64
	goodDone := make(chan struct{})
	var goodWG, badWG sync.WaitGroup
	for b := 0; b < badClients; b++ {
		badWG.Add(1)
		go func() {
			defer badWG.Done()
			cl := &proto.TCPClient{Addr: addr, Tenant: "crawler", Priority: "batch"}
			defer cl.Close()
			// Stop only once the good tenants are done and this client
			// alone has overrun the shared burst.
			for n := 0; ; n++ {
				if n > burst {
					select {
					case <-goodDone:
						return
					default:
					}
				}
				_, err := cl.Collect(q)
				switch {
				case err == nil:
					admitted.Add(1)
				case errors.Is(err, rerr.ErrOverloaded):
					shed.Add(1)
					// A drained Rate-1 bucket owes its next token in 1s.
					if d, ok := rerr.RetryAfter(err); !ok || d != time.Second {
						t.Errorf("shed carried retry-after %v, %t; want 1s", d, ok)
					}
				default:
					t.Errorf("misbehaving attempt ended neither admitted nor shed: %v", err)
				}
			}
		}()
	}
	for g := 0; g < goodClients; g++ {
		goodWG.Add(1)
		go func(g int) {
			defer goodWG.Done()
			cl := &proto.TCPClient{Addr: addr, Tenant: "good", Priority: "interactive"}
			defer cl.Close()
			for i := 0; i < goodQueries; i++ {
				if _, err := cl.Collect(q); err != nil {
					t.Errorf("good client %d query %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	goodWG.Wait()
	close(goodDone)
	badWG.Wait()

	if st := ts.status("crawler"); admitted.Load() != burst || st.Admitted != burst || shed.Load() == 0 || st.Shed != shed.Load() {
		t.Fatalf("fleet saw %d admitted (want its burst, %d) and %d shed; the server counted %d and %d",
			admitted.Load(), burst, shed.Load(), st.Admitted, st.Shed)
	}
	if st := ts.status("good"); st.Admitted != goodClients*goodQueries || st.Shed != 0 {
		t.Fatalf("good tenants: %d admitted, %d shed; want %d, 0", st.Admitted, st.Shed, goodClients*goodQueries)
	}
}

// waitCond polls cond for up to 5s of real time (server-side teardown
// runs asynchronously after the client observes the close).
func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
