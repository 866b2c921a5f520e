package remos_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"remos"
	"remos/internal/core"
	"remos/internal/obs"
)

// TestObservabilitySmoke is the end-to-end observability exercise: a
// full deployment instrumented into one registry, served as remosd
// serves it with tracing, queried through the public Dial API, and then
// inspected through the HTTP observability plane the way remosctl
// stats does.
func TestObservabilitySmoke(t *testing.T) {
	reg := obs.New()
	traces := obs.NewRing(64, 0)
	dep, d := stackOpts(t, core.Options{Obs: reg})
	_, srv := served(t, dep.Sim, dep.Sites["cmu"].Master, nil, reg, traces)

	osrv := httptest.NewServer(obs.Handler(reg, traces, func() []obs.ComponentHealth {
		last := dep.Sites["cmu"].SNMP.LastPoll()
		return []obs.ComponentHealth{{
			Component: dep.Sites["cmu"].SNMP.Name(),
			Healthy:   !last.IsZero(),
			LastPoll:  last,
		}}
	}))
	defer osrv.Close()

	m, err := remos.Dial("tcp://" + srv.ASCIIAddr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Two identical flow queries over FLOWS: the first is a snapshot miss
	// that walks the network, the second answers warm from the generation
	// the walk made.
	flows := []remos.Flow{{Src: d["app"].Addr(), Dst: d["srv"].Addr()}}
	for i := 0; i < 2; i++ {
		if _, err := m.GetFlowsContext(ctx, flows, remos.FlowOptions{}); err != nil {
			t.Fatalf("GetFlows %d: %v", i, err)
		}
	}

	get := func(path string) string {
		resp, err := http.Get(osrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		`remos_requests_total{proto="ascii"} 2`,
		"remos_request_seconds_bucket",
		"remos_snapshot_hits_total 1",
		"remos_snapshot_misses_total 1",
		"remos_snapshot_refreshes_total 1",
		`remos_modeler_queries_total{kind="flows"} 2`,
		"remos_master_queries_total 1",
		"remos_snmp_exchanges_total",
		`remos_snmpcoll_queries_total{collector="snmp-cmu"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("metrics:\n%s", metrics)
	}

	// The ASCII server traces each FLOWS and hands the trace to the ring
	// before it writes the reply; the Modeler spans its stages on it.
	var recs []obs.TraceRecord
	if err := json.Unmarshal([]byte(get("/debug/queries")), &recs); err != nil {
		t.Fatalf("parsing /debug/queries: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("ring holds %d traces, want 2", len(recs))
	}
	// Newest first: recs[0] is the warm hit, recs[1] the cold miss whose
	// walk fanned out to the collectors.
	stages := func(r obs.TraceRecord) map[string]bool {
		out := map[string]bool{}
		for _, sp := range r.Spans {
			out[sp.Name] = true
		}
		return out
	}
	cold := stages(recs[1])
	for _, want := range []string{"fanout", "merge", "maxmin", "snmp-cmu:discover", "snmp-cmu:validate", "snmp-cmu:snmp"} {
		if !cold[want] {
			t.Errorf("cold trace missing stage %q (has %v)", want, recs[1].Spans)
		}
	}
	warm := stages(recs[0])
	if warm["fanout"] || !warm["maxmin"] {
		t.Errorf("warm trace fanned out or ran no max-min despite a snapshot hit: %v", recs[0].Spans)
	}
	for _, r := range recs {
		if r.Kind != "ascii" {
			t.Errorf("trace kind %q, want ascii", r.Kind)
		}
		if st := stages(r); !st["parse"] || !st["encode"] {
			t.Errorf("trace missing its parse event or encode span: %v", r.Spans)
		}
		if r.Dur <= 0 {
			t.Errorf("trace has non-positive duration: %+v", r)
		}
	}

	var health obs.HealthResponse
	if err := json.Unmarshal([]byte(get("/healthz")), &health); err != nil {
		t.Fatalf("parsing /healthz: %v", err)
	}
	if len(health.Components) != 1 || health.Components[0].Component != "snmp-cmu" {
		t.Fatalf("healthz components = %+v", health.Components)
	}
}

// TestDialErrors covers the target grammar.
func TestDialErrors(t *testing.T) {
	if _, err := remos.Dial(""); err == nil {
		t.Error("empty target accepted")
	}
	if _, err := remos.Dial("udp://somewhere:1"); err == nil {
		t.Error("unsupported scheme accepted")
	}
	for _, ok := range []string{"tcp://h:1", "h:1", "http://h:1", "https://h:1"} {
		if _, err := remos.Dial(ok); err != nil {
			t.Errorf("Dial(%q) = %v", ok, err)
		}
	}
}

// TestTypedErrorsThroughPublicAPI drives a typed failure through the
// whole stack: a query for a host nobody is responsible for, asked over
// the wire, must come back as remos.ErrUnknownHost.
func TestTypedErrorsThroughPublicAPI(t *testing.T) {
	dep, d := stack(t)
	_, srv := served(t, dep.Sim, dep.Sites["cmu"].Master, nil, nil, nil)
	m, err := remos.Dial("tcp://" + srv.ASCIIAddr)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, err = m.GetTopologyContext(ctx, []netip.Addr{netip.MustParseAddr("203.0.113.7")}, remos.TopologyOptions{})
	if !errors.Is(err, remos.ErrUnknownHost) {
		t.Fatalf("err = %v, want ErrUnknownHost", err)
	}
	// A reachable pair still answers on the same connection.
	if _, err := m.GetTopologyContext(ctx, []netip.Addr{d["app"].Addr(), d["srv"].Addr()}, remos.TopologyOptions{}); err != nil {
		t.Fatalf("query after typed error: %v", err)
	}
}
