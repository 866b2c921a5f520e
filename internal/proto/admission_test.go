package proto

import (
	"context"
	"errors"
	"testing"
	"time"

	"remos/internal/admission"
	"remos/internal/collector"
	"remos/internal/modeler"
	"remos/internal/rerr"
	"remos/internal/sim"
	"remos/internal/watch"
)

// admissionRig is a connected pair of tenant-aware servers sharing one
// controller on an injected clock, so shed decisions and retry hints
// are deterministic.
type admissionRig struct {
	ctrl *admission.Controller
	sim  *sim.Sim
	coll *echoCollector
	tcp  string
	http string
	reg  *watch.Registry
}

func newAdmissionRig(t *testing.T, cfg admission.Config) *admissionRig {
	t.Helper()
	rig := &admissionRig{sim: sim.NewSim(), coll: &echoCollector{}}
	cfg.Sched = rig.sim
	rig.ctrl = admission.New(cfg)
	t.Cleanup(rig.ctrl.Close)
	rig.reg = watch.New(watch.Config{Now: time.Now})
	t.Cleanup(func() { rig.reg.Close(nil) })

	tcpSrv := &TCPServer{Collector: rig.coll, Watch: rig.reg, Flows: &fakeFlows{}, Admission: rig.ctrl}
	addr, err := tcpSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcpSrv.Close() })
	rig.tcp = addr

	httpSrv := &HTTPServer{Collector: rig.coll, Watch: rig.reg, Flows: &fakeFlows{}, Admission: rig.ctrl}
	haddr, err := httpSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { httpSrv.Close() })
	rig.http = haddr
	return rig
}

// meteredTenants is one tenant with a 2-query burst refilling at
// 0.5 tokens/s: on a frozen sim clock the third query always sheds
// with a 2s retry hint.
func meteredTenants() admission.Config {
	return admission.Config{
		Tenants: map[string]admission.TenantConfig{
			"metered": {Key: "k1", Limits: admission.Limits{Rate: 0.5, Burst: 2}},
		},
	}
}

func admissionClients(t *testing.T, rig *admissionRig, tenant, key string) map[string]collector.Interface {
	t.Helper()
	tcpCl := &TCPClient{Addr: rig.tcp, Tenant: tenant, TenantKey: key}
	t.Cleanup(func() { tcpCl.Close() })
	return map[string]collector.Interface{
		"ascii": tcpCl,
		"xml":   &HTTPClient{BaseURL: "http://" + rig.http, Tenant: tenant, TenantKey: key},
	}
}

// TestOverloadedRoundTrip drains the tenant's burst and asserts the
// shed answer carries the typed class and the exact retry hint over
// both transports — and that neither transport drops the connection.
func TestOverloadedRoundTrip(t *testing.T) {
	for _, proto := range []string{"ascii", "xml"} {
		t.Run(proto, func(t *testing.T) {
			rig := newAdmissionRig(t, meteredTenants())
			cl := admissionClients(t, rig, "metered", "k1")[proto]
			before := rig.coll.queries()
			for i := 0; i < 2; i++ {
				if _, err := cl.Collect(collector.Query{Hosts: hostList("10.0.0.1")}); err != nil {
					t.Fatalf("burst query %d: %v", i, err)
				}
			}
			_, err := cl.Collect(collector.Query{Hosts: hostList("10.0.0.1")})
			if !errors.Is(err, rerr.ErrOverloaded) {
				t.Fatalf("shed error = %v, want ErrOverloaded", err)
			}
			if d, ok := rerr.RetryAfter(err); !ok || d != 2*time.Second {
				t.Fatalf("retry-after = %v, %t; want 2s", d, ok)
			}
			// The shed must not have reached the collector, and the
			// connection must stay serviceable: refill one token and
			// the same client queries again without redialing.
			if got := rig.coll.queries() - before; got != 2 {
				t.Fatalf("collector saw %d queries, want 2 (shed leaked or was retried)", got)
			}
			rig.sim.RunFor(2 * time.Second)
			if _, err := cl.Collect(collector.Query{Hosts: hostList("10.0.0.1")}); err != nil {
				t.Fatalf("query after refill: %v", err)
			}
		})
	}
}

// TestUnauthenticatedRoundTrip asserts bad credentials decode as the
// typed ErrUnauthenticated on both transports.
func TestUnauthenticatedRoundTrip(t *testing.T) {
	rig := newAdmissionRig(t, meteredTenants())
	for proto, cl := range admissionClients(t, rig, "metered", "wrong-key") {
		_, err := cl.Collect(collector.Query{Hosts: hostList("10.0.0.1")})
		if !errors.Is(err, rerr.ErrUnauthenticated) {
			t.Errorf("%s: bad-key error = %v, want ErrUnauthenticated", proto, err)
		}
	}
	for proto, cl := range admissionClients(t, rig, "ghost", "") {
		_, err := cl.Collect(collector.Query{Hosts: hostList("10.0.0.1")})
		if !errors.Is(err, rerr.ErrUnauthenticated) {
			t.Errorf("%s: unknown-tenant error = %v, want ErrUnauthenticated", proto, err)
		}
	}
}

// TestAnonymousLimits: connections with no tenant identity share the
// anonymous bucket.
func TestAnonymousLimits(t *testing.T) {
	rig := newAdmissionRig(t, admission.Config{
		Anonymous: admission.Limits{Rate: 0.5, Burst: 1},
	})
	cl := &TCPClient{Addr: rig.tcp}
	defer cl.Close()
	if _, err := cl.Collect(collector.Query{Hosts: hostList("10.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	_, err := cl.Collect(collector.Query{Hosts: hostList("10.0.0.1")})
	if !errors.Is(err, rerr.ErrOverloaded) {
		t.Fatalf("anonymous bucket not enforced: %v", err)
	}
}

// TestFlowsAdmission: the FLOWS verb goes through the same gate.
func TestFlowsAdmission(t *testing.T) {
	rig := newAdmissionRig(t, meteredTenants())
	tcpCl := &TCPClient{Addr: rig.tcp, Tenant: "metered", TenantKey: "k1"}
	defer tcpCl.Close()
	httpCl := &HTTPClient{BaseURL: "http://" + rig.http, Tenant: "metered", TenantKey: "k1"}

	// Burn the burst on queries, then both FLOWS paths must shed typed.
	for i := 0; i < 2; i++ {
		if _, err := tcpCl.Collect(collector.Query{Hosts: hostList("10.0.0.1")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tcpCl.Flows(context.Background(), nil); !errors.Is(err, rerr.ErrOverloaded) {
		t.Fatalf("ascii FLOWS shed error = %v", err)
	}
	if _, err := httpCl.Flows(context.Background(), nil); !errors.Is(err, rerr.ErrOverloaded) {
		t.Fatalf("xml FLOWS shed error = %v", err)
	}
}

// TestFlowsWithoutAnswererCostsNoToken: a FLOWS a server cannot answer
// is refused before admission, so a client falling back to QUERY spends
// the tenant's tokens once, on the QUERY.
func TestFlowsWithoutAnswererCostsNoToken(t *testing.T) {
	s := sim.NewSim()
	cfg := meteredTenants()
	cfg.Sched = s
	ctrl := admission.New(cfg)
	defer ctrl.Close()
	coll := &echoCollector{}
	tcpSrv := &TCPServer{Collector: coll, Admission: ctrl}
	addr, err := tcpSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcpSrv.Close()
	httpSrv := &HTTPServer{Collector: coll, Admission: ctrl}
	haddr, err := httpSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer httpSrv.Close()
	tcpCl := &TCPClient{Addr: addr, Tenant: "metered", TenantKey: "k1"}
	defer tcpCl.Close()
	httpCl := &HTTPClient{BaseURL: "http://" + haddr, Tenant: "metered", TenantKey: "k1"}

	hosts := hostList("10.0.0.1", "10.0.0.2")
	flows := []modeler.Flow{{Src: hosts[0], Dst: hosts[1]}}
	if _, err := tcpCl.Flows(context.Background(), flows); !errors.Is(err, rerr.ErrCollectorUnavailable) {
		t.Fatalf("ascii FLOWS without an answerer: %v, want ErrCollectorUnavailable", err)
	}
	if _, err := httpCl.Flows(context.Background(), flows); !errors.Is(err, rerr.ErrCollectorUnavailable) {
		t.Fatalf("xml FLOWS without an answerer: %v, want ErrCollectorUnavailable", err)
	}
	// The burst of two is whole: both queries pass on the frozen clock.
	for i, cl := range []collector.Interface{tcpCl, httpCl} {
		if _, err := cl.Collect(collector.Query{Hosts: hostList("10.0.0.1")}); err != nil {
			t.Fatalf("query %d after the refused FLOWS: %v", i, err)
		}
	}
}

// TestWatchQuotaRoundTrip: the watch quota is enforced on subscribe and
// released on teardown, over both transports.
func TestWatchQuotaRoundTrip(t *testing.T) {
	for _, proto := range []string{"ascii", "xml"} {
		t.Run(proto, func(t *testing.T) {
			rig := newAdmissionRig(t, admission.Config{
				Tenants: map[string]admission.TenantConfig{
					"w": {Limits: admission.Limits{MaxWatches: 1}},
				},
			})
			mkWatch := func(ctx context.Context) (<-chan watch.Update, error) {
				if proto == "ascii" {
					cl := &TCPClient{Addr: rig.tcp, Tenant: "w"}
					t.Cleanup(func() { cl.Close() })
					return cl.Watch(ctx, watch.Spec{Src: watchSrc, Dst: watchDst, Below: 5e6})
				}
				cl := &HTTPClient{BaseURL: "http://" + rig.http, Tenant: "w"}
				return cl.Watch(ctx, watch.Spec{Src: watchSrc, Dst: watchDst, Below: 5e6})
			}

			ctx1, cancel1 := context.WithCancel(context.Background())
			defer cancel1()
			ch1, err := mkWatch(ctx1)
			if err != nil {
				t.Fatalf("first watch: %v", err)
			}
			waitActive(t, rig.reg, 1)

			if _, err := mkWatch(context.Background()); !errors.Is(err, rerr.ErrOverloaded) {
				t.Fatalf("quota not enforced: %v", err)
			}

			// Tear the first watch down; its quota slot must free.
			cancel1()
			for range ch1 {
			}
			waitActive(t, rig.reg, 0)
			waitForQuota(t, rig.ctrl, "w", 0)

			ctx3, cancel3 := context.WithCancel(context.Background())
			defer cancel3()
			if _, err := mkWatch(ctx3); err != nil {
				t.Fatalf("slot not released on teardown: %v", err)
			}
		})
	}
}

// waitForQuota polls the controller snapshot until the tenant's watch
// count reaches want (the server-side drain defer runs asynchronously
// after the client observes the close).
func waitForQuota(t *testing.T, ctrl *admission.Controller, tenant string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := -1
		for _, st := range ctrl.Snapshot() {
			if st.Tenant == tenant {
				n = st.Watches
			}
		}
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %q watches = %d, want %d", tenant, n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPreambleAgainstPlainServer: a tenant-configured client must
// interoperate with a server that has no admission controller.
func TestPreambleAgainstPlainServer(t *testing.T) {
	srv := &TCPServer{Collector: &echoCollector{}}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := &TCPClient{Addr: addr, Tenant: "metered", TenantKey: "k1", Priority: "batch"}
	defer cl.Close()
	checkRoundTrip(t, cl)
}

// TestBadPriorityTier: an unknown tier fails loudly without severing
// the ASCII session, and answers 400 on HTTP.
func TestBadPriorityTier(t *testing.T) {
	rig := newAdmissionRig(t, meteredTenants())
	cl := &TCPClient{Addr: rig.tcp, Tenant: "metered", TenantKey: "k1", Priority: "urgent"}
	defer cl.Close()
	if _, err := cl.Collect(collector.Query{Hosts: hostList("10.0.0.1")}); err == nil {
		t.Fatal("unknown tier accepted")
	}
	hcl := &HTTPClient{BaseURL: "http://" + rig.http, Tenant: "metered", TenantKey: "k1", Priority: "urgent"}
	if _, err := hcl.Collect(collector.Query{Hosts: hostList("10.0.0.1")}); err == nil {
		t.Fatal("unknown tier accepted over http")
	}
}
