package modeler

import (
	"context"
	"math"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/snapshot"
)

// countingColl wraps the dumbbell fake with a collect counter.
type countingColl struct {
	fakeColl
	calls atomic.Int64
}

func (c *countingColl) Collect(q collector.Query) (*collector.Result, error) {
	c.calls.Add(1)
	return c.fakeColl.Collect(q)
}

// testClock is a settable clock for snapshot staleness tests.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}
func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func snapModeler(cc collector.Interface, ck *testClock) *Modeler {
	store := snapshot.New(snapshot.Config{Now: ck.Now})
	return New(Config{Collector: cc, Snapshot: store, MaxStale: 5 * time.Second})
}

// TestSnapshotHitGetFlowsZeroCollectorRoundTrips pins the acceptance
// criterion: once the snapshot plane holds a fresh generation, flow
// queries perform zero collector round-trips and still return the
// collect-path answer.
func TestSnapshotHitGetFlowsZeroCollectorRoundTrips(t *testing.T) {
	cc := &countingColl{}
	ck := &testClock{t: time.Unix(1000, 0)}
	m := snapModeler(cc, ck)
	flows := []Flow{{Src: a("10.0.1.1"), Dst: a("10.0.2.1")}}

	// First query: cold, one coalesced walk populates the snapshot.
	if _, err := m.GetFlowsContext(context.Background(), flows, FlowOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := cc.calls.Load(); got != 1 {
		t.Fatalf("cold query ran %d walks, want 1", got)
	}
	// Warm queries: all snapshot hits.
	for i := 0; i < 50; i++ {
		infos, err := m.GetFlowsContext(context.Background(), flows, FlowOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(infos[0].Available-6e6) > 1 {
			t.Fatalf("snapshot answer %v, want 6e6", infos[0].Available)
		}
		if infos[0].Latency != 14*time.Millisecond {
			t.Fatalf("snapshot latency %v, want 14ms", infos[0].Latency)
		}
		if len(infos[0].Path) != 6 {
			t.Fatalf("snapshot path %v, want the full 6-hop path", infos[0].Path)
		}
	}
	if got := cc.calls.Load(); got != 1 {
		t.Fatalf("snapshot-hit GetFlows performed %d collector round-trips, want 0", got-1)
	}
}

func TestSnapshotStaleFallsBackToRefresh(t *testing.T) {
	cc := &countingColl{}
	ck := &testClock{t: time.Unix(1000, 0)}
	m := snapModeler(cc, ck)
	flows := []Flow{{Src: a("10.0.1.1"), Dst: a("10.0.2.1")}}
	if _, err := m.GetFlowsContext(context.Background(), flows, FlowOptions{}); err != nil {
		t.Fatal(err)
	}
	ck.Advance(10 * time.Second) // past the 5s default bound
	if _, err := m.GetFlowsContext(context.Background(), flows, FlowOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := cc.calls.Load(); got != 2 {
		t.Fatalf("stale snapshot ran %d walks, want a refresh (2 total)", got)
	}
	// The refresh restored freshness: the next query hits again.
	if _, err := m.GetFlowsContext(context.Background(), flows, FlowOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := cc.calls.Load(); got != 2 {
		t.Fatalf("post-refresh query walked again (%d walks)", got)
	}
}

// TestNewRefusesStoreWithoutBound: a snapshot store comes with the
// staleness bound answers from it are held to; there is no default.
func TestNewRefusesStoreWithoutBound(t *testing.T) {
	store := snapshot.New(snapshot.Config{Now: time.Now})
	for _, bound := range []time.Duration{0, -time.Second} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted a snapshot store with MaxStale %v", bound)
				}
			}()
			New(Config{Collector: &countingColl{}, Snapshot: store, MaxStale: bound})
		}()
	}
}

func TestPredictionQueriesBypassSnapshot(t *testing.T) {
	cc := &countingColl{}
	cc.histGen = steadyHistory(8e6, 200)
	ck := &testClock{t: time.Unix(1000, 0)}
	m := snapModeler(cc, ck)
	flows := []Flow{{Src: a("10.0.1.1"), Dst: a("10.0.2.1")}}
	if _, err := m.GetFlowsContext(context.Background(), flows, FlowOptions{}); err != nil {
		t.Fatal(err)
	}
	// Prediction needs history: always a collector walk, snapshot or not.
	if _, err := m.GetFlowsContext(context.Background(), flows, FlowOptions{Predict: true}); err != nil {
		t.Fatal(err)
	}
	if got := cc.calls.Load(); got != 2 {
		t.Fatalf("prediction query ran %d walks total, want 2", got)
	}
	if !cc.lastQ.WithHistory {
		t.Fatal("prediction walk did not request history")
	}
}

func TestSnapshotTopologyAnswersFromSubgraphMemo(t *testing.T) {
	cc := &countingColl{}
	ck := &testClock{t: time.Unix(1000, 0)}
	m := snapModeler(cc, ck)
	hosts := []netip.Addr{a("10.0.1.1"), a("10.0.2.1")}
	g1, err := m.GetTopologyContext(context.Background(), hosts, TopologyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Same simplification contract as the collect path.
	if g1.Node("10.0.1.2") != nil || g1.Node("s1") != nil || g1.Node("s2") != nil {
		t.Fatal("snapshot-backed topology not simplified")
	}
	bw, _, err := g1.BottleneckAvail("10.0.1.1", "10.0.2.1")
	if err != nil || math.Abs(bw-6e6) > 1 {
		t.Fatalf("bw = %v err = %v, want 6e6", bw, err)
	}
	for i := 0; i < 10; i++ {
		if _, err := m.GetTopologyContext(context.Background(), hosts, TopologyOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := cc.calls.Load(); got != 1 {
		t.Fatalf("warm topology queries ran %d walks, want 1", got)
	}
	// Raw queries never answer from the snapshot.
	if _, err := m.GetTopologyContext(context.Background(), hosts, TopologyOptions{Raw: true}); err != nil {
		t.Fatal(err)
	}
	if got := cc.calls.Load(); got != 2 {
		t.Fatalf("raw query ran %d walks total, want 2", got)
	}
}

// TestSnapshotFlowsResolveByIDNotAddr: the snapshot answers for the
// endpoints it holds under their own address as node ID. A router's
// interface address — the Addr of a node whose ID is its name — is an
// unknown host to it, as it is in text, and takes the walk (the refresh
// for a host never applied, then the private collect); a flow between
// two hosts it knows takes none.
func TestSnapshotFlowsResolveByIDNotAddr(t *testing.T) {
	cc := &countingColl{}
	m := snapModeler(cc, &testClock{t: time.Unix(1000, 0)})
	ctx := context.Background()
	if _, err := m.GetFlowsContext(ctx, []Flow{{Src: a("10.0.1.1"), Dst: a("10.0.2.1")}}, FlowOptions{}); err != nil {
		t.Fatal(err)
	}
	walks := cc.calls.Load()
	infos, err := m.GetFlowsContext(ctx, []Flow{{Src: a("10.0.2.1"), Dst: a("10.0.1.1")}, {Src: a("10.0.1.1"), Dst: a("10.0.1.1")}}, FlowOptions{})
	if err != nil || cc.calls.Load() != walks {
		t.Fatalf("known hosts: %v, %d walks", err, cc.calls.Load()-walks)
	}
	if want := []string{"10.0.2.1", "s2", "r2", "r1", "s1", "10.0.1.1"}; !slices.Equal(infos[0].Path, want) || infos[0].Predicted != infos[0].Available {
		t.Fatalf("answer %+v, want path %v", infos[0], want)
	}
	if !slices.Equal(infos[1].Path, []string{"10.0.1.1"}) {
		t.Fatalf("self-flow path %v", infos[1].Path)
	}
	_, err = m.GetFlowsContext(ctx, []Flow{{Src: a("10.9.0.1"), Dst: a("10.0.2.1")}}, FlowOptions{})
	if err == nil || cc.calls.Load() != walks+2 {
		t.Fatalf("router interface address: err %v after %d walks, want an error after 2", err, cc.calls.Load()-walks)
	}
}

// slowColl is the dumbbell fake behind an agent that takes two seconds
// of the test clock to answer.
type slowColl struct {
	countingColl
	ck *testClock
}

func (c *slowColl) Collect(q collector.Query) (*collector.Result, error) {
	c.ck.Advance(2 * time.Second)
	return c.countingColl.Collect(q)
}

// TestSlowWalkAgesTheGenerationItProduces: a generation is as old as the
// moment its walk began. The query that led a two-second walk is answered
// from it; the next one, on a modeler tolerating one second, walks again
// rather than take two-second-old readings for fresh; one on a modeler
// tolerating five over the same store does not.
func TestSlowWalkAgesTheGenerationItProduces(t *testing.T) {
	ck := &testClock{t: time.Unix(1000, 0)}
	cc := &slowColl{ck: ck}
	store := snapshot.New(snapshot.Config{Now: ck.Now})
	ctx := context.Background()
	flows := []Flow{{Src: a("10.0.1.1"), Dst: a("10.0.2.1")}}
	ask := func(maxStale time.Duration, wantWalks int64, what string) {
		t.Helper()
		m := New(Config{Collector: cc, Snapshot: store, MaxStale: maxStale})
		infos, err := m.GetFlowsContext(ctx, flows, FlowOptions{})
		if err != nil || math.Abs(infos[0].Available-6e6) > 1 {
			t.Fatalf("%s: %+v, %v", what, infos, err)
		}
		if got := cc.calls.Load(); got != wantWalks {
			t.Fatalf("%s: %d walks so far, want %d", what, got, wantWalks)
		}
	}
	ask(time.Second, 1, "the query that leads the walk")
	ask(time.Second, 2, "a 1s bound on readings 2s old")
	ask(5*time.Second, 2, "a 5s bound on readings 2s old")
}

// TestGetFlowsDedupesHostsOneWalkPerUniqueHost pins the fan-out fix:
// flow lists repeating endpoints must walk each unique host once.
func TestGetFlowsDedupesHostsOneWalkPerUniqueHost(t *testing.T) {
	cc := &countingColl{}
	m := New(Config{Collector: cc}) // no snapshot: direct fan-out path
	_, err := m.GetFlowsContext(context.Background(), []Flow{
		{Src: a("10.0.1.1"), Dst: a("10.0.2.1")},
		{Src: a("10.0.1.1"), Dst: a("10.0.2.1")},
		{Src: a("10.0.2.1"), Dst: a("10.0.1.1")},
	}, FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := cc.calls.Load(); got != 1 {
		t.Fatalf("fan-out ran %d collects, want 1", got)
	}
	assertUnique(t, cc.lastQ.Hosts, 2)
}

func TestGetTopologyDedupesHosts(t *testing.T) {
	cc := &countingColl{}
	m := New(Config{Collector: cc})
	hosts := []netip.Addr{a("10.0.1.1"), a("10.0.2.1"), a("10.0.1.1"), a("10.0.2.1")}
	if _, err := m.GetTopologyContext(context.Background(), hosts, TopologyOptions{}); err != nil {
		t.Fatal(err)
	}
	assertUnique(t, cc.lastQ.Hosts, 2)
}

func assertUnique(t *testing.T, hosts []netip.Addr, want int) {
	t.Helper()
	if len(hosts) != want {
		t.Fatalf("fan-out walked %d hosts %v, want %d unique", len(hosts), hosts, want)
	}
	seen := make(map[netip.Addr]bool)
	for _, h := range hosts {
		if seen[h] {
			t.Fatalf("duplicate host %v in fan-out %v", h, hosts)
		}
		seen[h] = true
	}
}
