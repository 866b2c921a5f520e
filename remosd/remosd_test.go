package remosd_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"remos"
	"remos/internal/directory"
	"remos/internal/obs"
	"remos/remosd"
)

// testConfig is DefaultConfig on ephemeral ports with the directory and
// host load planes off.
func testConfig() remosd.Config {
	cfg := remosd.DefaultConfig()
	cfg.ListenASCII, cfg.ListenHTTP, cfg.ListenObs = "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"
	cfg.ListenDirectory, cfg.ListenHostLoad = "", ""
	return cfg
}

// TestStartProgrammatic boots the daemon from a Config — ephemeral
// ports, two tenants — and drives it through the public client API: a
// metered tenant's queries succeed inside its burst and shed typed
// beyond it, and the observability plane exposes the per-tenant
// admission state, the process's runtime gauges and the snapshot plane's.
func TestStartProgrammatic(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = map[string]remosd.Tenant{
		// Refill is negligible over the test's lifetime, so the burst is
		// the whole budget: one query in, the next one shed.
		"app":  {Key: "sekrit", Limits: remosd.Limits{Rate: 0.001, Burst: 1}},
		"bulk": {Limits: remosd.Limits{Tier: remosd.Batch}},
	}
	d, err := cfg.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.ASCIIAddr == "" || d.HTTPAddr == "" || d.ObsAddr == "" {
		t.Fatalf("bound addresses missing: %+v", d)
	}
	if d.DirectoryAddr != "" || d.HostLoadAddr != "" {
		t.Fatalf("disabled planes bound addresses: %+v", d)
	}
	if len(d.Hosts) < 2 {
		t.Fatalf("scenario hosts = %v", d.Hosts)
	}

	m, err := remos.Dial("tcp://"+d.ASCIIAddr, remos.WithTenant("app", "sekrit"))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	src, dst := d.Hosts[0].Addr, d.Hosts[1].Addr
	if _, err := m.AvailableBandwidthContext(ctx, src, dst); err != nil {
		t.Fatalf("burst query: %v", err)
	}
	_, err = m.AvailableBandwidthContext(ctx, src, dst)
	if !errors.Is(err, remos.ErrOverloaded) {
		t.Fatalf("shed error = %v, want remos.ErrOverloaded", err)
	}
	if hint, ok := remos.RetryAfter(err); !ok || hint <= 0 {
		t.Fatalf("retry hint = %v, %t", hint, ok)
	}

	for path, wants := range map[string][]string{
		"/debug/tenants": {`"tenant": "app"`, `"shed": 1`},
		"/metrics": {`remos_admission_admitted_total{tenant="app"} 1`, `remos_admission_shed_total{tenant="app"} 1`,
			"remos_runtime_goroutines ", "remos_runtime_heap_bytes ", "remos_runtime_gc_pause_seconds ",
			"remos_snapshot_tree_builds "},
	} {
		resp, err := http.Get("http://" + d.ObsAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, want := range wants {
			if !strings.Contains(string(body), want) {
				t.Errorf("%s missing %q:\n%s", path, want, body)
			}
		}
	}

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d.Close() // idempotent
}

// TestHostLoadIsMetered: the host load listener sits behind the same
// admission controller as the wire servers, so a tenant whose burst is
// one query gets one host load answer and then a typed shed with a retry
// hint, while an unmetered tenant still gets answers. It reports to the
// same observability plane: every query admitted is counted and timed in
// the ASCII request metrics and leaves a /debug/queries record.
func TestHostLoadIsMetered(t *testing.T) {
	cfg := testConfig()
	cfg.ListenHostLoad = "127.0.0.1:0"
	cfg.Tenants = map[string]remosd.Tenant{
		"app":  {Key: "sekrit", Limits: remosd.Limits{Rate: 0.001, Burst: 1}},
		"bulk": {},
	}
	d, err := cfg.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dial := func(tenant, key string) *remos.Connection {
		t.Helper()
		conn, err := remos.Dial("tcp://"+d.ASCIIAddr, remos.WithTenant(tenant, key),
			remos.WithHostLoad("tcp://"+d.HostLoadAddr))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	app, bulk := dial("app", "sekrit"), dial("bulk", "")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	host := d.Hosts[0].Addr

	// The collector samples at 1 Hz: wait, unmetered, for the first sample.
	admitted := 0 // the test asks nothing else over ASCII
	for {
		_, err := bulk.HostLoadContext(ctx, host, 1)
		admitted++
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("bulk host load: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if _, err := app.HostLoadContext(ctx, host, 1); err != nil {
		t.Fatalf("app's one host load query: %v", err)
	}
	_, err = app.HostLoadContext(ctx, host, 1)
	if !errors.Is(err, remos.ErrOverloaded) {
		t.Fatalf("app's second host load query: %v, want remos.ErrOverloaded", err)
	}
	if hint, ok := remos.RetryAfter(err); !ok || hint <= 0 {
		t.Fatalf("retry hint = %v, %t", hint, ok)
	}
	if _, err := bulk.HostLoadContext(ctx, host, 1); err != nil {
		t.Fatalf("bulk host load after app's shed: %v", err)
	}
	admitted += 2 // app's first and bulk's last; app's second was shed

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + d.ObsAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	metrics := string(get("/metrics"))
	for _, want := range []string{
		fmt.Sprintf(`remos_requests_total{proto="ascii"} %d`, admitted),
		fmt.Sprintf(`remos_request_seconds_count{proto="ascii"} %d`, admitted),
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	var recs []obs.TraceRecord
	if err := json.Unmarshal(get("/debug/queries"), &recs); err != nil {
		t.Fatalf("parsing /debug/queries: %v", err)
	}
	answered := 0
	for _, r := range recs {
		if r.Kind != "ascii" || r.Attrs != host.String() {
			t.Errorf("trace of kind %q for %q, want ascii for %s", r.Kind, r.Attrs, host)
		}
		for _, sp := range r.Spans {
			if sp.Name == "encode" {
				answered++
			}
		}
	}
	if len(recs) != admitted || answered < 3 {
		t.Errorf("/debug/queries holds %d host load traces, %d of them answered; want %d, at least 3 answered", len(recs), answered, admitted)
	}
}

// TestStartRejectsBadTier: config errors surface from Start, before
// anything is started.
func TestStartRejectsBadTier(t *testing.T) {
	cfg := testConfig()
	cfg.Anonymous = &remosd.Limits{Tier: remosd.Batch + 1}
	_, err := cfg.Start()
	if err == nil || !strings.Contains(err.Error(), "unknown priority tier") {
		t.Fatalf("Start error = %v, want unknown priority tier", err)
	}
}

// TestStartRejectsNonPositiveMaxStale: there is no "no bound" setting;
// a zero or negative MaxStale is a configuration error.
func TestStartRejectsNonPositiveMaxStale(t *testing.T) {
	for _, bound := range []time.Duration{0, -time.Second} {
		cfg := testConfig()
		cfg.MaxStale = bound
		if _, err := cfg.Start(); err == nil || !strings.Contains(err.Error(), "max-stale") {
			t.Errorf("MaxStale %v: Start error = %v, want a max-stale error", bound, err)
		}
	}
}

// TestStartRejectsNonPositiveSchedInterval: the poll plane and the watch
// plane it feeds always run; there is no setting that turns them off.
func TestStartRejectsNonPositiveSchedInterval(t *testing.T) {
	for _, ival := range []time.Duration{0, -time.Second} {
		cfg := testConfig()
		cfg.SchedInterval = ival
		if _, err := cfg.Start(); err == nil || !strings.Contains(err.Error(), "sched-interval") {
			t.Errorf("SchedInterval %v: Start error = %v, want a sched-interval error", ival, err)
		}
	}
}

// TestBothModesServeEveryPlane starts a single-master daemon and one
// master of a two-domain mesh — both through the one bring-up the modes
// share — and checks that each answers on every listener it opens: a
// flow query over ASCII and over XML/HTTP, each traced once by the
// protocol server it arrived on, LIST on the directory, and /healthz
// naming the mode's own components.
func TestBothModesServeEveryPlane(t *testing.T) {
	for _, mode := range []struct {
		name      string
		domains   int
		component string // a /healthz row only this mode reports
	}{
		{"single-master", 0, "master-a"},
		{"federated", 2, "federation-master-d0"},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.ListenDirectory = "127.0.0.1:0"
			cfg.Domains = mode.domains
			d, err := cfg.Start()
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			// app1 and app2 share a switch, so the pair is inside domain
			// d0 as well as inside the single master's first site.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			flow := []remos.Flow{{Src: d.Hosts[0].Addr, Dst: d.Hosts[1].Addr}}
			for _, target := range []string{"tcp://" + d.ASCIIAddr, "http://" + d.HTTPAddr} {
				m, err := remos.Dial(target)
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				infos, err := m.GetFlowsContext(ctx, flow, remos.FlowOptions{})
				if err != nil || len(infos) != 1 || infos[0].Available <= 0 {
					t.Fatalf("%s: flow answer %+v, %v", target, infos, err)
				}
			}

			// One record a request, whichever answerer the mode runs: kind
			// is the wire protocol, and the record holds the parse and the
			// encode of a FLOWS.
			resp, err := http.Get("http://" + d.ObsAddr + "/debug/queries")
			if err != nil {
				t.Fatal(err)
			}
			var recs []obs.TraceRecord
			err = json.NewDecoder(resp.Body).Decode(&recs)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("parsing /debug/queries: %v", err)
			}
			kinds := map[string]int{}
			for _, r := range recs {
				kinds[r.Kind]++
				var parse, encode bool
				for _, sp := range r.Spans {
					parse = parse || sp.Name == "parse" && strings.HasSuffix(sp.Detail, " flows")
					encode = encode || sp.Name == "encode"
				}
				if !parse || !encode || r.Err != "" {
					t.Errorf("%s record: parse of flows %t, encode %t, err %q; want both and no error: %+v",
						r.Kind, parse, encode, r.Err, r.Spans)
				}
			}
			if len(recs) != 2 || kinds["ascii"] != 1 || kinds["xml"] != 1 {
				t.Errorf("/debug/queries holds %d records by kind %v; want one ascii and one xml", len(recs), kinds)
			}

			adverts, err := (&directory.Client{Addr: d.DirectoryAddr}).List()
			if err != nil || len(adverts) == 0 {
				t.Fatalf("directory LIST = %+v, %v; want the mode's own adverts", adverts, err)
			}

			resp, err = http.Get("http://" + d.ObsAddr + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if want := `"component":"` + mode.component + `"`; !strings.Contains(string(body), want) {
				t.Fatalf("/healthz has no %s:\n%s", want, body)
			}
		})
	}
}
