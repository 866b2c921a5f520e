package snapshot

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/topology"
)

func a(s string) netip.Addr { return netip.MustParseAddr(s) }

// dumbbell builds the standard two-site test graph.
func dumbbell() *topology.Graph {
	g := topology.NewGraph()
	for _, n := range []topology.Node{
		{ID: "10.0.1.1", Kind: topology.HostNode, Addr: "10.0.1.1"},
		{ID: "10.0.1.2", Kind: topology.HostNode, Addr: "10.0.1.2"},
		{ID: "10.0.2.1", Kind: topology.HostNode, Addr: "10.0.2.1"},
		{ID: "s1", Kind: topology.SwitchNode},
		{ID: "r1", Kind: topology.RouterNode},
		{ID: "r2", Kind: topology.RouterNode},
	} {
		g.AddNode(n)
	}
	links := []topology.Link{
		{From: "10.0.1.1", To: "s1", Capacity: 100e6, Latency: time.Millisecond},
		{From: "10.0.1.2", To: "s1", Capacity: 100e6, Latency: time.Millisecond},
		{From: "s1", To: "r1", Capacity: 100e6, Latency: time.Millisecond},
		{From: "r1", To: "r2", Capacity: 10e6, UtilFromTo: 4e6, Latency: 10 * time.Millisecond},
		{From: "r2", To: "10.0.2.1", Capacity: 100e6, Latency: time.Millisecond},
	}
	for _, l := range links {
		if _, err := g.AddLink(l); err != nil {
			panic(err)
		}
	}
	return g
}

// clock is a settable test clock.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock { return &clock{t: time.Unix(1000, 0)} }
func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}
func (c *clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

var testHosts = []netip.Addr{a("10.0.1.1"), a("10.0.1.2"), a("10.0.2.1")}

func TestApplyAdvancesEpochAndFreshness(t *testing.T) {
	ck := newClock()
	st := New(Config{Now: ck.Now})
	if st.Current() != nil {
		t.Fatal("empty store has a current snapshot")
	}
	if st.Fresh(testHosts, time.Second) != nil {
		t.Fatal("empty store reported fresh")
	}
	s1 := st.Apply(testHosts, &collector.Result{Graph: dumbbell()}, ck.Now())
	if s1.Epoch() != 1 {
		t.Fatalf("first epoch = %d", s1.Epoch())
	}
	if st.Fresh(testHosts, time.Second) != s1 {
		t.Fatal("fresh snapshot not returned")
	}
	// A host never applied is never fresh.
	if st.Fresh([]netip.Addr{a("10.0.9.9")}, time.Second) != nil {
		t.Fatal("unknown host reported fresh")
	}
	// Staleness: advance past the bound.
	ck.Advance(2 * time.Second)
	if st.Fresh(testHosts, time.Second) != nil {
		t.Fatal("stale snapshot reported fresh")
	}
	// A new apply refreshes the stamps and bumps the epoch.
	s2 := st.Apply(testHosts, &collector.Result{Graph: dumbbell()}, ck.Now())
	if s2.Epoch() != 2 {
		t.Fatalf("second epoch = %d", s2.Epoch())
	}
	if st.Fresh(testHosts, time.Second) != s2 {
		t.Fatal("refreshed snapshot not fresh")
	}
}

func TestApplyUpdatesReadingsLatestWins(t *testing.T) {
	ck := newClock()
	st := New(Config{Now: ck.Now})
	st.Apply(testHosts, &collector.Result{Graph: dumbbell()}, ck.Now())
	// Second poll reports the WAN hotter.
	g2 := dumbbell()
	g2.FindLink("r1", "r2").UtilFromTo = 8e6
	s := st.Apply(testHosts, &collector.Result{Graph: g2}, ck.Now())
	if got := s.Graph().FindLink("r1", "r2").UtilFromTo; got != 8e6 {
		t.Fatalf("merged WAN util = %g, want latest-wins 8e6", got)
	}
}

// TestSupersededGenerationIsCollected: a reader still holding a
// superseded generation reads that generation's own readings; and once
// the last reader lets go, nothing in the Store reaches it, so the
// collector takes it.
func TestSupersededGenerationIsCollected(t *testing.T) {
	ck := newClock()
	st := New(Config{Now: ck.Now})
	s1 := st.Apply(testHosts, &collector.Result{Graph: dumbbell()}, ck.Now())
	hot := dumbbell()
	hot.FindLink("r1", "r2").UtilFromTo = 8e6
	s2 := st.Apply(testHosts, &collector.Result{Graph: hot}, ck.Now())
	if got := s1.Graph().FindLink("r1", "r2").UtilFromTo; got != 4e6 {
		t.Fatalf("superseded generation reads WAN util %g, want its own 4e6", got)
	}
	if got := s2.Graph().FindLink("r1", "r2").UtilFromTo; got != 8e6 {
		t.Fatalf("current generation reads WAN util %g, want 8e6", got)
	}

	collected := make(chan struct{})
	runtime.SetFinalizer(s1, func(*Snapshot) { close(collected) })
	s1 = nil
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the superseded generation is still reachable after the next Apply")
		}
	}
}

// gateColl counts collects and optionally blocks them on a gate.
type gateColl struct {
	mu      sync.Mutex
	calls   int
	queries []collector.Query
	gate    chan struct{}
	started chan struct{} // closed on first collect
	once    sync.Once
}

func (g *gateColl) Name() string { return "gate" }
func (g *gateColl) Collect(q collector.Query) (*collector.Result, error) {
	g.mu.Lock()
	g.calls++
	g.queries = append(g.queries, q)
	g.mu.Unlock()
	if g.started != nil {
		g.once.Do(func() { close(g.started) })
	}
	if g.gate != nil {
		<-g.gate
	}
	return &collector.Result{Graph: dumbbell()}, nil
}

func TestRefreshCoalescesConcurrentColdQueries(t *testing.T) {
	ck := newClock()
	st := New(Config{Now: ck.Now})
	gc := &gateColl{gate: make(chan struct{}), started: make(chan struct{})}
	const n = 8
	var wg sync.WaitGroup
	snaps := make([]*Snapshot, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snaps[i], errs[i] = st.Refresh(context.Background(), gc, testHosts)
		}(i)
	}
	// Wait until the leader is inside Collect, give the waiters time to
	// park on the flight, then release the walk.
	<-gc.started
	time.Sleep(50 * time.Millisecond)
	close(gc.gate)
	wg.Wait()
	if gc.calls != 1 {
		t.Fatalf("%d concurrent cold queries ran %d collector walks, want 1", n, gc.calls)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if snaps[i] == nil || snaps[i].Epoch() != 1 {
			t.Fatalf("waiter %d got snapshot %+v", i, snaps[i])
		}
	}
}

func TestRefreshMergesUncoveredIntoNextWalk(t *testing.T) {
	ck := newClock()
	st := New(Config{Now: ck.Now})
	gc := &gateColl{gate: make(chan struct{}, 1), started: make(chan struct{})}

	aHosts := []netip.Addr{a("10.0.1.1")}
	bHosts := []netip.Addr{a("10.0.2.1")}
	done1 := make(chan error, 1)
	go func() {
		_, err := st.Refresh(context.Background(), gc, aHosts)
		done1 <- err
	}()
	<-gc.started
	// B's hosts are not covered by the in-flight walk: it must merge into
	// the next one rather than join.
	done2 := make(chan error, 1)
	go func() {
		_, err := st.Refresh(context.Background(), gc, bHosts)
		done2 <- err
	}()
	time.Sleep(50 * time.Millisecond)
	gc.gate <- struct{}{} // release walk 1
	gc.gate <- struct{}{} // release walk 2
	if err := <-done1; err != nil {
		t.Fatal(err)
	}
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if gc.calls != 2 {
		t.Fatalf("ran %d walks, want 2", gc.calls)
	}
	second := gc.queries[1].Hosts
	found := false
	for _, h := range second {
		if h == bHosts[0] {
			found = true
		}
	}
	if !found {
		t.Fatalf("second walk %v does not cover the merged host %v", second, bHosts[0])
	}
}

func TestRefreshWaiterHonorsContext(t *testing.T) {
	ck := newClock()
	st := New(Config{Now: ck.Now})
	gc := &gateColl{gate: make(chan struct{}), started: make(chan struct{})}
	go st.Refresh(context.Background(), gc, testHosts)
	<-gc.started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.Refresh(ctx, gc, testHosts); err == nil {
		t.Fatal("canceled waiter returned no error")
	}
	close(gc.gate)
}

func TestRefreshErrorShared(t *testing.T) {
	ck := newClock()
	st := New(Config{Now: ck.Now})
	fail := &failColl{}
	if _, err := st.Refresh(context.Background(), fail, testHosts); err == nil {
		t.Fatal("collector failure swallowed")
	}
	if st.Current() != nil {
		t.Fatal("failed walk produced a snapshot")
	}
}

type failColl struct{}

func (failColl) Name() string { return "fail" }
func (failColl) Collect(collector.Query) (*collector.Result, error) {
	return nil, fmt.Errorf("down")
}

// TestApplyKeepsPathTreesAcrossMetricOnlySwaps: a poll that moved
// measurements only hands the next generation the trees the last one
// built — and the new measurements; a poll that changed the topology
// starts its generation with none.
func TestApplyKeepsPathTreesAcrossMetricOnlySwaps(t *testing.T) {
	ck := newClock()
	st := New(Config{Now: ck.Now})
	reqs := []topology.FlowRequest{{Src: "10.0.1.1", Dst: "10.0.2.1"}, {Src: "10.0.2.1", Dst: "10.0.1.2"}}
	ask := func(s *Snapshot) float64 {
		t.Helper()
		preds, err := s.Paths().FlowAlloc(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return preds[0].Available
	}

	s1 := st.Apply(testHosts, &collector.Result{Graph: dumbbell()}, ck.Now())
	if got := ask(s1); got != 6e6 {
		t.Fatalf("epoch 1 WAN share = %g, want 6e6", got)
	}
	if got := s1.Paths().TreeBuilds(); got != 2 {
		t.Fatalf("two sources built %d trees", got)
	}

	hot := dumbbell()
	hot.FindLink("r1", "r2").UtilFromTo = 8e6
	s2 := st.Apply(testHosts, &collector.Result{Graph: hot}, ck.Now())
	if got := ask(s2); got != 2e6 {
		t.Fatalf("epoch 2 WAN share = %g, want the new reading's 2e6", got)
	}
	if got := s2.Paths().TreeBuilds(); got != 2 {
		t.Fatalf("a measurement-only swap rebuilt trees: %d builds, want the first epoch's 2", got)
	}
	if got := ask(s1); got != 6e6 {
		t.Fatalf("epoch 1 now answers %g: the generations share measurements, not just shape", got)
	}

	grown := dumbbell()
	grown.AddNode(topology.Node{ID: "10.0.2.2", Kind: topology.HostNode, Addr: "10.0.2.2"})
	if _, err := grown.AddLink(topology.Link{From: "r2", To: "10.0.2.2", Capacity: 100e6}); err != nil {
		t.Fatal(err)
	}
	s3 := st.Apply(testHosts, &collector.Result{Graph: grown}, ck.Now())
	if got := s3.Paths().TreeBuilds(); got != 0 {
		t.Fatalf("a topology change started its generation with %d trees built", got)
	}
	if _, err := s3.Paths().Path("10.0.1.1", "10.0.2.2"); err != nil {
		t.Fatalf("new host unroutable: %v", err)
	}
	if got := s2.Paths().TreeBuilds(); got != 2 {
		t.Fatalf("the superseded shape's count moved to %d", got)
	}
}

func TestNewRefusesNilClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a Config without a clock")
		}
	}()
	New(Config{})
}

// TestReadersBesideApply reads every field of whatever generation is
// current, and its memo, while a writer keeps publishing the next one
// (meaningful under -race: a generation written to after Apply stored it
// is a report here). Generation e carries a WAN utilisation derived from
// e, so a reader can tell a torn generation from a whole one.
func TestReadersBesideApply(t *testing.T) {
	ck := newClock()
	st := New(Config{Now: ck.Now})
	util := func(e Epoch) float64 { return float64(e%1000) * 1e3 }
	apply := func(e Epoch) {
		g := dumbbell()
		g.FindLink("r1", "r2").UtilFromTo = util(e)
		st.Apply(testHosts, &collector.Result{Graph: g}, ck.Now())
	}
	apply(1)
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last Epoch
			for swaps := 0; swaps < 50; {
				s := st.Fresh(testHosts, time.Hour)
				if s == nil || s.Epoch() < last || s.At().IsZero() {
					t.Errorf("read after generation %d: %+v", last, s)
					return
				}
				if s.Epoch() > last {
					swaps++
				} else {
					runtime.Gosched() // let the writer publish
				}
				last = s.Epoch()
				want := util(s.Epoch())
				if got := s.Graph().FindLink("r1", "r2").UtilFromTo; got != want {
					t.Errorf("generation %d graph reads WAN util %g, want %g", s.Epoch(), got, want)
					return
				}
				preds, err := s.Paths().FlowAlloc([]topology.FlowRequest{{Src: "10.0.1.1", Dst: "10.0.2.1"}})
				if err != nil || preds[0].Available != 10e6-want {
					t.Errorf("generation %d index answers %v, %v; want %g", s.Epoch(), preds, err, 10e6-want)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { readers.Wait(); close(done) }()
	for e := Epoch(2); ; e++ {
		select {
		case <-done:
			return
		default:
			apply(e)
			runtime.Gosched()
		}
	}
}
