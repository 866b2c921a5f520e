package obs

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeRender(t *testing.T) {
	r := New()
	r.Counter("remos_requests_total", "queries", "kind", "flows").Add(3)
	r.Counter("remos_requests_total", "queries", "kind", "topo").Inc()
	same := r.Counter("remos_requests_total", "queries", "kind", "flows")
	same.Inc()
	r.Gauge("remos_admission_inflight", "in flight").Set(2.5)
	r.GaugeFunc("remos_qcache_entries", "entries", func() float64 { return 7 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE remos_requests_total counter",
		`remos_requests_total{kind="flows"} 4`,
		`remos_requests_total{kind="topo"} 1`,
		"# TYPE remos_admission_inflight gauge",
		"remos_admission_inflight 2.5",
		"remos_qcache_entries 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("remos_snmp_rtt_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`remos_snmp_rtt_seconds_bucket{le="0.01"} 2`, // 0.005 and the 0.01 edge
		`remos_snmp_rtt_seconds_bucket{le="0.1"} 3`,
		`remos_snmp_rtt_seconds_bucket{le="1"} 4`,
		`remos_snmp_rtt_seconds_bucket{le="+Inf"} 5`,
		"remos_snmp_rtt_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("remos_sched_polls_total", "").Inc()
	r.Gauge("remos_sched_targets", "").Set(1)
	r.Histogram("remos_snmp_rtt_seconds", "", nil).Observe(1)
	r.GaugeFunc("remos_watch_active", "", func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var tr *Trace
	tr.Start("s").EndDetail("d")
	tr.Event("e", "")
	tr.SetErr(errors.New("x"))
	tr.Finish()
	var ring *Ring
	ring.Observe(tr)
	if ring.Snapshot() != nil {
		t.Fatal("nil ring must snapshot nil")
	}
}

// mustPanic runs f and fails unless it panics with a message holding
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg, _ := recover().(string)
		if !strings.Contains(msg, want) {
			t.Errorf("panic %q, want one holding %q", msg, want)
		}
	}()
	f()
}

// TestRegistryChecksNames holds the naming grammar at the one owner
// every metric passes through: a bad name panics on every registration,
// on a real registry and on a nil one alike, so an uninstrumented test
// trips it as surely as a daemon.
func TestRegistryChecksNames(t *testing.T) {
	cases := []struct {
		kind, name, want string
	}{
		{"counter", "RemosSchedPolls", `"RemosSchedPolls" is not snake_case`},
		{"counter", "sched_polls_total", `"sched_polls_total" is outside the remos_ namespace`},
		{"counter", "remos_mystery_polls_total", `"remos_mystery_polls_total" has no known subsystem token`},
		{"counter", "remos_sched_polls", `counter "remos_sched_polls" must end in _total`},
		{"gauge", "remos_watch_updates_total", `gauge "remos_watch_updates_total" must not end in _total`},
		{"gaugefunc", "remos_watch_updates_total", `gauge "remos_watch_updates_total" must not end in _total`},
		{"histogram", "remos_snmp_rtt", `histogram "remos_snmp_rtt" must carry a unit suffix`},
		{"counter", "remos__sched_total", "is not snake_case"},
		{"counter", "remos_sched_", "is not snake_case"},
		{"counter", "remos_sched", "has no known subsystem token"},
	}
	for _, reg := range []*Registry{New(), nil} {
		for _, c := range cases {
			mustPanic(t, c.want, func() {
				switch c.kind {
				case "counter":
					reg.Counter(c.name, "x")
				case "gauge":
					reg.Gauge(c.name, "x")
				case "gaugefunc":
					reg.GaugeFunc(c.name, "x", func() float64 { return 0 })
				case "histogram":
					reg.Histogram(c.name, "x", nil)
				}
			})
		}
	}
	r := New()
	r.Counter("remos_sched_polls_total", "ok")
	r.Gauge("remos_watch_active", "ok")
	r.Histogram("remos_snmp_rtt_seconds", "ok", nil)
	r.Histogram("remos_snmpcoll_reply_bytes", "ok", nil)
	r.GaugeFunc("remos_qcache_entries", "ok", func() float64 { return 0 })
}

// TestRegistryChecksHelp pins one help text per family: registering a
// family again with another help panics, and an empty help reads the
// family back without setting or checking it.
func TestRegistryChecksHelp(t *testing.T) {
	r := New()
	c := r.Counter("remos_sched_polls_total", "background polls")
	c.Add(3)
	mustPanic(t, `registered with help "background polls" and "dup"`, func() {
		r.Counter("remos_sched_polls_total", "dup")
	})
	if got := r.Counter("remos_sched_polls_total", ""); got != c || got.Value() != 3 {
		t.Fatalf("empty help read back %p (value %d), want %p", got, got.Value(), c)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "# HELP remos_sched_polls_total background polls\n") {
		t.Fatalf("help lost:\n%s", b.String())
	}
	r.Gauge("remos_sched_poll_interval_seconds", "")
	mustPanic(t, "registered as gauge and histogram", func() {
		r.Histogram("remos_sched_poll_interval_seconds", "", nil)
	})
}

// TestNilRegistrationAllocatesNothing: the name check runs on every
// registration, nil registry included, and costs no allocation.
func TestNilRegistrationAllocatesNothing(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("remos_admission_admitted_total", "queries admitted", "tenant", "t1")
		r.Gauge("remos_sched_poll_interval_seconds", "interval", "target", "a")
		r.Histogram("remos_request_seconds", "latency", nil, "proto", "ascii")
	})
	if allocs != 0 {
		t.Fatalf("nil-registry registration: %v allocations, want 0", allocs)
	}
}

func TestTraceSpansAndRing(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	tr := NewTraceAt("collect", "10.0.0.1,10.0.0.2", now)
	sp := tr.Start("fanout")
	clock = clock.Add(30 * time.Millisecond)
	sp.EndDetail("2 sites")
	tr.Event("cache", "miss")
	clock = clock.Add(20 * time.Millisecond)

	ring := NewRing(2, 40*time.Millisecond)
	ring.Observe(tr)
	recs := ring.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	rec := recs[0]
	if rec.Kind != "collect" || rec.Dur != 50*time.Millisecond || !rec.Slow {
		t.Fatalf("record = %+v", rec)
	}
	if len(rec.Spans) != 2 || rec.Spans[0].Name != "fanout" || rec.Spans[0].Dur != 30*time.Millisecond {
		t.Fatalf("spans = %+v", rec.Spans)
	}
	if rec.Spans[1].Detail != "miss" {
		t.Fatalf("event lost: %+v", rec.Spans[1])
	}
	if ring.SlowCount() != 1 {
		t.Fatalf("SlowCount = %d", ring.SlowCount())
	}

	// Ring wraps: 3 observations in a 2-slot ring keep the latest two.
	for i := 0; i < 3; i++ {
		ring.Observe(NewTraceAt("t", "", now))
	}
	if got := len(ring.Snapshot()); got != 2 {
		t.Fatalf("after wrap: %d records", got)
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("fanout", "")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.Start("site")
			sp.End()
		}()
	}
	wg.Wait()
	ring := NewRing(4, 0)
	ring.Observe(tr)
	if got := len(ring.Snapshot()[0].Spans); got != 16 {
		t.Fatalf("spans = %d, want 16", got)
	}
}

func TestContextCarriesTrace(t *testing.T) {
	tr := NewTrace("q", "")
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost in context")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("expected nil trace")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	reg := New()
	reg.Counter("remos_modeler_queries_total", "q").Add(2)
	ring := NewRing(8, 0)
	tr := NewTrace("collect", "h1")
	tr.Start("parse").End()
	ring.Observe(tr)
	down := false
	h := Handler(reg, ring, func() []ComponentHealth {
		return []ComponentHealth{{Component: "snmp-a", Healthy: !down, Detail: "ok"}}
	})

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	if rec := get("/metrics"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "remos_modeler_queries_total 2") {
		t.Fatalf("/metrics: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get("/healthz"); rec.Code != 200 {
		t.Fatalf("/healthz: %d", rec.Code)
	}
	down = true
	if rec := get("/healthz"); rec.Code != 503 {
		t.Fatalf("/healthz with down component: %d", rec.Code)
	}
	rec := get("/debug/queries")
	var recs []TraceRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Kind != "collect" || len(recs[0].Spans) != 1 {
		t.Fatalf("/debug/queries = %+v", recs)
	}
}
