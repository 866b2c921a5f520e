package master

import (
	"errors"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/obs"
	"remos/internal/rerr"
	"remos/internal/topology"
)

// fake is a scripted collector.
type fake struct {
	name    string
	mu      sync.Mutex
	gotQs   []collector.Query
	results func(q collector.Query) (*collector.Result, error)
}

func (f *fake) Name() string { return f.name }
func (f *fake) Collect(q collector.Query) (*collector.Result, error) {
	f.mu.Lock()
	f.gotQs = append(f.gotQs, q)
	f.mu.Unlock()
	return f.results(q)
}

// entries is a fixed directory.
type entries []Entry

func (e entries) Entries() ([]Entry, error) { return e, nil }

func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }
func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// lineGraph builds a chain graph over the given node IDs.
func lineGraph(ids ...string) *collector.Result {
	g := topology.NewGraph()
	for _, id := range ids {
		g.AddNode(topology.Node{ID: id, Kind: topology.HostNode, Addr: id})
	}
	for i := 0; i+1 < len(ids); i++ {
		g.AddLink(topology.Link{From: ids[i], To: ids[i+1], Capacity: 1e6 * float64(i+1)})
	}
	return &collector.Result{Graph: g}
}

func newTestMaster() (*Master, *fake, *fake, *fake) {
	siteA := &fake{name: "snmp-a", results: func(q collector.Query) (*collector.Result, error) {
		var ids []string
		for _, h := range q.Hosts {
			ids = append(ids, h.String())
		}
		return lineGraph(ids...), nil
	}}
	siteB := &fake{name: "snmp-b", results: func(q collector.Query) (*collector.Result, error) {
		var ids []string
		for _, h := range q.Hosts {
			ids = append(ids, h.String())
		}
		return lineGraph(ids...), nil
	}}
	wide := &fake{name: "bench", results: func(q collector.Query) (*collector.Result, error) {
		g := topology.NewGraph()
		g.AddNode(topology.Node{ID: "10.0.1.9", Kind: topology.HostNode, Addr: "10.0.1.9"})
		g.AddNode(topology.Node{ID: "10.0.2.9", Kind: topology.HostNode, Addr: "10.0.2.9"})
		g.AddNode(topology.Node{ID: "wan:a-b", Kind: topology.VirtualNode})
		g.AddLink(topology.Link{From: "10.0.1.9", To: "wan:a-b", Capacity: 3e6})
		g.AddLink(topology.Link{From: "wan:a-b", To: "10.0.2.9", Capacity: 3e6})
		return &collector.Result{Graph: g, History: map[collector.HistKey][]collector.Sample{
			{From: "10.0.1.9", To: "10.0.2.9"}: {{Bits: 3e6}},
		}}, nil
	}}
	m := New(Config{
		Name: "master-a",
		Directory: entries{
			{Name: "a", Prefixes: []netip.Prefix{pfx("10.0.1.0/24")}, Collector: siteA, BenchHost: addr("10.0.1.9")},
			{Name: "b", Prefixes: []netip.Prefix{pfx("10.0.2.0/24")}, Collector: siteB, BenchHost: addr("10.0.2.9")},
		},
		WideArea: wide,
		Obs:      obs.New(),
	})
	return m, siteA, siteB, wide
}

func TestSingleSiteQueryForwardsDirectly(t *testing.T) {
	m, siteA, siteB, wide := newTestMaster()
	res, err := m.Collect(collector.Query{Hosts: []netip.Addr{addr("10.0.1.1"), addr("10.0.1.2")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(siteA.gotQs) != 1 || len(siteB.gotQs) != 0 || len(wide.gotQs) != 0 {
		t.Fatalf("sub-queries a=%d b=%d wide=%d, want 1/0/0",
			len(siteA.gotQs), len(siteB.gotQs), len(wide.gotQs))
	}
	// Single-site query must NOT drag in the benchmark endpoint.
	if len(siteA.gotQs[0].Hosts) != 2 {
		t.Fatalf("site sub-query hosts = %v", siteA.gotQs[0].Hosts)
	}
	if len(res.Graph.Nodes()) != 2 {
		t.Fatalf("merged nodes = %d", len(res.Graph.Nodes()))
	}
}

func TestMultiSiteQuerySplitsAndJoins(t *testing.T) {
	m, siteA, siteB, wide := newTestMaster()
	res, err := m.Collect(collector.Query{Hosts: []netip.Addr{addr("10.0.1.1"), addr("10.0.2.1")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(siteA.gotQs) != 1 || len(siteB.gotQs) != 1 || len(wide.gotQs) != 1 {
		t.Fatal("expected one sub-query per site plus wide area")
	}
	// Site sub-queries include the benchmark join point.
	if len(siteA.gotQs[0].Hosts) != 2 || siteA.gotQs[0].Hosts[1] != addr("10.0.1.9") {
		t.Fatalf("site a sub-query = %v", siteA.gotQs[0].Hosts)
	}
	// Merged graph must connect end to end through the WAN.
	preds, err := res.Graph.FlowAlloc([]topology.FlowRequest{{Src: "10.0.1.1", Dst: "10.0.2.1"}})
	if err != nil {
		t.Fatalf("no end-to-end path in merged graph: %v", err)
	}
	if bw, path := preds[0].Available, preds[0].Path; bw <= 0 || len(path) < 5 {
		t.Fatalf("end-to-end bw=%v path=%v", bw, path)
	}
}

func TestHistoryMergedWhenRequested(t *testing.T) {
	m, _, _, _ := newTestMaster()
	res, err := m.Collect(collector.Query{
		Hosts:       []netip.Addr{addr("10.0.1.1"), addr("10.0.2.1")},
		WithHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("wide-area history not merged")
	}
}

func TestUnknownHostRejected(t *testing.T) {
	m, _, _, _ := newTestMaster()
	if _, err := m.Collect(collector.Query{Hosts: []netip.Addr{addr("192.168.1.1")}}); err == nil {
		t.Fatal("host outside every scope accepted")
	}
}

func TestEmptyQueryRejected(t *testing.T) {
	m, _, _, _ := newTestMaster()
	if _, err := m.Collect(collector.Query{}); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestSubCollectorErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	bad := &fake{name: "bad", results: func(collector.Query) (*collector.Result, error) {
		return nil, boom
	}}
	m := New(Config{Directory: entries{{Name: "x", Prefixes: []netip.Prefix{pfx("10.0.0.0/8")}, Collector: bad}}})
	if _, err := m.Collect(collector.Query{Hosts: []netip.Addr{addr("10.1.2.3")}}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestMultiSiteWithoutWideAreaFails(t *testing.T) {
	m, _, _, _ := newTestMaster()
	m.cfg.WideArea = nil
	if _, err := m.Collect(collector.Query{Hosts: []netip.Addr{addr("10.0.1.1"), addr("10.0.2.1")}}); err == nil {
		t.Fatal("multi-site query without wide-area collector succeeded")
	}
}

func TestLongestPrefixWins(t *testing.T) {
	special := &fake{name: "special", results: func(q collector.Query) (*collector.Result, error) {
		var ids []string
		for _, h := range q.Hosts {
			ids = append(ids, h.String())
		}
		return lineGraph(ids...), nil
	}}
	broad := &fake{name: "broad", results: func(q collector.Query) (*collector.Result, error) {
		var ids []string
		for _, h := range q.Hosts {
			ids = append(ids, h.String())
		}
		return lineGraph(ids...), nil
	}}
	m := New(Config{Directory: entries{
		{Name: "broad", Prefixes: []netip.Prefix{pfx("10.0.0.0/8")}, Collector: broad},
		{Name: "special", Prefixes: []netip.Prefix{pfx("10.0.5.0/24")}, Collector: special},
	}})
	if _, err := m.Collect(collector.Query{Hosts: []netip.Addr{addr("10.0.5.7")}}); err != nil {
		t.Fatal(err)
	}
	if len(special.gotQs) != 1 || len(broad.gotQs) != 0 {
		t.Fatal("longest-prefix entry did not win")
	}
}

func TestHierarchicalMasters(t *testing.T) {
	inner, siteA, _, _ := newTestMaster()
	// An outer master delegates the 10.0.0.0/16 region to the inner
	// master — "the remote collector might be another Master Collector".
	outer := New(Config{
		Name: "master-top",
		Directory: entries{
			{Name: "region", Prefixes: []netip.Prefix{pfx("10.0.0.0/16")}, Collector: inner},
		},
		Obs: obs.New(),
	})
	res, err := outer.Collect(collector.Query{Hosts: []netip.Addr{addr("10.0.1.1"), addr("10.0.1.3")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(siteA.gotQs) != 1 {
		t.Fatal("inner master did not receive the delegated query")
	}
	if len(res.Graph.Nodes()) != 2 {
		t.Fatalf("merged nodes = %d", len(res.Graph.Nodes()))
	}
	if inner.mQueries.Value() != 1 || outer.mQueries.Value() != 1 {
		t.Fatalf("query counts inner=%d outer=%d", inner.mQueries.Value(), outer.mQueries.Value())
	}
}

// encodeGraph renders a graph canonically for byte-comparison.
func encodeGraph(t *testing.T, g *topology.Graph) string {
	t.Helper()
	var sb strings.Builder
	if err := g.EncodeText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestParallelFanoutMatchesSerial asserts the tentpole determinism
// guarantee: the merged answer is byte-identical whether sub-queries run
// serially or fan out concurrently, regardless of completion order (the
// fakes introduce a reversed completion order via staggered sleeps).
func TestParallelFanoutMatchesSerial(t *testing.T) {
	build := func(parallelism int, delayA, delayWide time.Duration) *Master {
		siteA := &fake{name: "snmp-a", results: func(q collector.Query) (*collector.Result, error) {
			time.Sleep(delayA)
			var ids []string
			for _, h := range q.Hosts {
				ids = append(ids, h.String())
			}
			return lineGraph(ids...), nil
		}}
		siteB := &fake{name: "snmp-b", results: func(q collector.Query) (*collector.Result, error) {
			var ids []string
			for _, h := range q.Hosts {
				ids = append(ids, h.String())
			}
			return lineGraph(ids...), nil
		}}
		wide := &fake{name: "bench", results: func(q collector.Query) (*collector.Result, error) {
			time.Sleep(delayWide)
			g := topology.NewGraph()
			g.AddNode(topology.Node{ID: "10.0.1.9", Kind: topology.HostNode, Addr: "10.0.1.9"})
			g.AddNode(topology.Node{ID: "10.0.2.9", Kind: topology.HostNode, Addr: "10.0.2.9"})
			g.AddNode(topology.Node{ID: "wan:a-b", Kind: topology.VirtualNode})
			g.AddLink(topology.Link{From: "10.0.1.9", To: "wan:a-b", Capacity: 3e6})
			g.AddLink(topology.Link{From: "wan:a-b", To: "10.0.2.9", Capacity: 3e6})
			return &collector.Result{Graph: g}, nil
		}}
		return New(Config{
			Parallelism: parallelism,
			Directory: entries{
				{Name: "a", Prefixes: []netip.Prefix{pfx("10.0.1.0/24")}, Collector: siteA, BenchHost: addr("10.0.1.9")},
				{Name: "b", Prefixes: []netip.Prefix{pfx("10.0.2.0/24")}, Collector: siteB, BenchHost: addr("10.0.2.9")},
			},
			WideArea: wide,
		})
	}
	q := collector.Query{Hosts: []netip.Addr{addr("10.0.1.1"), addr("10.0.2.1"), addr("10.0.1.2")}}
	serial, err := build(1, 0, 0).Collect(q)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeGraph(t, serial.Graph)
	// Several parallel runs with different completion orders.
	for _, delays := range [][2]time.Duration{
		{0, 0},
		{5 * time.Millisecond, 0}, // site a lands last
		{0, 5 * time.Millisecond}, // wide-area lands last
		{2 * time.Millisecond, 4 * time.Millisecond},
	} {
		res, err := build(0, delays[0], delays[1]).Collect(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeGraph(t, res.Graph); got != want {
			t.Fatalf("parallel merge (delays %v) diverged from serial:\n got: %s\nwant: %s", delays, got, want)
		}
	}
}

// TestDuplicateHostsDeduplicated: repeated hosts in a query collapse to
// one per sub-query, and a BenchHost already in the query is not appended
// twice.
func TestDuplicateHostsDeduplicated(t *testing.T) {
	m, siteA, siteB, _ := newTestMaster()
	_, err := m.Collect(collector.Query{Hosts: []netip.Addr{
		addr("10.0.1.1"), addr("10.0.1.1"), addr("10.0.1.9"), // dup + a's bench host
		addr("10.0.2.1"), addr("10.0.2.1"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := siteA.gotQs[0].Hosts; len(got) != 2 {
		t.Fatalf("site a sub-query hosts = %v, want 2 unique", got)
	}
	if got := siteB.gotQs[0].Hosts; len(got) != 2 { // 10.0.2.1 + bench join point
		t.Fatalf("site b sub-query hosts = %v, want host+bench", got)
	}
}

// TestParallelErrorIsDeterministic: when several sites fail concurrently,
// the reported error is the first site in sorted order, not whichever
// goroutine lost the race.
func TestParallelErrorIsDeterministic(t *testing.T) {
	errA := errors.New("a failed")
	errB := errors.New("b failed")
	failing := func(err error, delay time.Duration) *fake {
		return &fake{name: err.Error(), results: func(collector.Query) (*collector.Result, error) {
			time.Sleep(delay)
			return nil, err
		}}
	}
	for trial := 0; trial < 4; trial++ {
		m := New(Config{
			Directory: entries{
				{Name: "a", Prefixes: []netip.Prefix{pfx("10.0.1.0/24")}, Collector: failing(errA, 3*time.Millisecond)},
				{Name: "b", Prefixes: []netip.Prefix{pfx("10.0.2.0/24")}, Collector: failing(errB, 0)},
			},
			WideArea: &fake{name: "bench", results: func(collector.Query) (*collector.Result, error) {
				return lineGraph("x"), nil
			}},
		})
		_, err := m.Collect(collector.Query{Hosts: []netip.Addr{addr("10.0.1.1"), addr("10.0.2.1")}})
		if !errors.Is(err, errA) {
			t.Fatalf("trial %d: err = %v, want site a's error (sorted-first)", trial, err)
		}
	}
}

// errDirectory fails every lookup.
type errDirectory struct{}

func (errDirectory) Entries() ([]Entry, error) { return nil, errors.New("directory down") }

// TestDirectoryFailureFailsCollect: a failing directory is not an empty
// one — the query fails with the directory's error rather than as an
// unknown host.
func TestDirectoryFailureFailsCollect(t *testing.T) {
	m := New(Config{Directory: errDirectory{}})
	_, err := m.Collect(collector.Query{Hosts: []netip.Addr{addr("10.0.1.1")}})
	if err == nil || !strings.Contains(err.Error(), "directory down") || errors.Is(err, rerr.ErrUnknownHost) {
		t.Fatalf("err = %v, want the directory's failure", err)
	}
}

// TestConcurrentCollects: many goroutines query one master at once; every
// answer must be identical and the query counter exact (run under
// -race).
func TestConcurrentCollects(t *testing.T) {
	m, _, _, _ := newTestMaster()
	q := collector.Query{Hosts: []netip.Addr{addr("10.0.1.1"), addr("10.0.2.1")}}
	want, err := m.Collect(q)
	if err != nil {
		t.Fatal(err)
	}
	wantEnc := encodeGraph(t, want.Graph)

	const goroutines = 16
	var wg sync.WaitGroup
	encs := make([]string, goroutines)
	errs := make([]error, goroutines)
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			res, err := m.Collect(q)
			if err != nil {
				errs[i] = err
				return
			}
			var sb strings.Builder
			if err := res.Graph.EncodeText(&sb); err != nil {
				errs[i] = err
				return
			}
			encs[i] = sb.String()
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if encs[i] != wantEnc {
			t.Fatalf("goroutine %d got a different merged graph", i)
		}
	}
	if got := m.mQueries.Value(); got != goroutines+1 {
		t.Fatalf("queries = %d, want %d", got, goroutines+1)
	}
}

// fixed answers every query with one result.
type fixed struct{ res *collector.Result }

func (f fixed) Name() string                                       { return "fixed" }
func (f fixed) Collect(collector.Query) (*collector.Result, error) { return f.res, nil }

// TestHostGroupingKeepsOrderAndJoins pins how the master splits a query:
// each site's sub-query lists its hosts once each, in the order the query
// first names them; a multi-site query joins each site's benchmark
// endpoint to its list unless the query named it already, and asks the
// wide area for the endpoints in site order. A one-site 32-host query
// makes no per-site set to group its hosts: it allocates the sub-query's
// host list, the fan-out's slots and the func it runs, four times in all
// (five while conc.ForEachCtx wrapped that func in a closure of its own;
// fourteen, ~3.6 KB, when each site's hosts were grouped through a set).
func TestHostGroupingKeepsOrderAndJoins(t *testing.T) {
	m, siteA, siteB, wide := newTestMaster()
	_, err := m.Collect(collector.Query{Hosts: []netip.Addr{
		addr("10.0.2.7"), addr("10.0.1.3"), addr("10.0.1.1"), addr("10.0.2.7"),
		addr("10.0.1.3"), addr("10.0.2.9"), addr("10.0.1.2"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  []netip.Addr
		want []netip.Addr
	}{
		{"a", siteA.gotQs[0].Hosts, []netip.Addr{addr("10.0.1.3"), addr("10.0.1.1"), addr("10.0.1.2"), addr("10.0.1.9")}},
		{"b", siteB.gotQs[0].Hosts, []netip.Addr{addr("10.0.2.7"), addr("10.0.2.9")}},
		{"wide area", wide.gotQs[0].Hosts, []netip.Addr{addr("10.0.1.9"), addr("10.0.2.9")}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("site %s sub-query hosts = %v, want %v", c.name, c.got, c.want)
		}
	}

	lone := New(Config{Directory: entries{
		{Name: "a", Prefixes: []netip.Prefix{pfx("10.0.1.0/24")}, Collector: fixed{lineGraph("10.0.1.1")}},
	}})
	hosts := make([]netip.Addr, 32)
	for i := range hosts {
		hosts[i] = netip.AddrFrom4([4]byte{10, 0, 1, byte(i + 1)})
	}
	q := collector.Query{Hosts: hosts}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := lone.Collect(q); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 4
	if allocs > budget {
		t.Fatalf("a one-site 32-host query allocates %.0f times, budget %d", allocs, budget)
	}
}
