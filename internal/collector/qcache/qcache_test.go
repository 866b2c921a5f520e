package qcache

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/topology"
)

// slowColl is a scripted inner collector with a controllable gate.
type slowColl struct {
	calls atomic.Int64
	gate  chan struct{} // when non-nil, Collect blocks until closed
	err   error
}

func (s *slowColl) Name() string { return "slow" }

func (s *slowColl) Collect(q collector.Query) (*collector.Result, error) {
	s.calls.Add(1)
	if s.gate != nil {
		<-s.gate
	}
	if s.err != nil {
		return nil, s.err
	}
	g := topology.NewGraph()
	for _, h := range q.Hosts {
		g.AddNode(topology.Node{ID: h.String(), Kind: topology.HostNode, Addr: h.String()})
	}
	return &collector.Result{Graph: g}, nil
}

func q(hosts ...string) collector.Query {
	var out collector.Query
	for _, h := range hosts {
		out.Hosts = append(out.Hosts, netip.MustParseAddr(h))
	}
	return out
}

func TestWarmHit(t *testing.T) {
	inner := &slowColl{}
	now := time.Unix(0, 0)
	c := New(inner, Config{TTL: 10 * time.Second, Now: func() time.Time { return now }})

	r1, err := c.Collect(q("10.0.0.1", "10.0.0.2"))
	if err != nil {
		t.Fatal(err)
	}
	// Same hosts in another order: same cache slot.
	r2, err := c.Collect(q("10.0.0.2", "10.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	if inner.calls.Load() != 1 {
		t.Fatalf("inner collected %d times, want 1", inner.calls.Load())
	}
	if len(r1.Graph.Nodes()) != 2 || len(r2.Graph.Nodes()) != 2 {
		t.Fatal("bad graphs")
	}
	// Results are isolated copies.
	if r1.Graph == r2.Graph {
		t.Fatal("cache handed out a shared graph")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTTLExpiry(t *testing.T) {
	inner := &slowColl{}
	now := time.Unix(0, 0)
	c := New(inner, Config{TTL: 5 * time.Second, Now: func() time.Time { return now }})

	if _, err := c.Collect(q("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	now = now.Add(4 * time.Second)
	if _, err := c.Collect(q("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	if inner.calls.Load() != 1 {
		t.Fatalf("fresh query re-collected (calls=%d)", inner.calls.Load())
	}
	now = now.Add(2 * time.Second) // past TTL
	if _, err := c.Collect(q("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	if inner.calls.Load() != 2 {
		t.Fatalf("stale query did not re-collect (calls=%d)", inner.calls.Load())
	}
}

func TestFlagsPartitionCache(t *testing.T) {
	inner := &slowColl{}
	c := New(inner, Config{TTL: time.Hour, Now: time.Now})
	base := q("10.0.0.1")
	withHist := base
	withHist.WithHistory = true
	c.Collect(base)
	c.Collect(withHist)
	if inner.calls.Load() != 2 {
		t.Fatalf("flag variants shared a slot (calls=%d)", inner.calls.Load())
	}
}

func TestSingleFlightCoalescesConcurrentIdenticalQueries(t *testing.T) {
	inner := &slowColl{gate: make(chan struct{})}
	c := New(inner, Config{TTL: time.Hour, Now: time.Now})

	const n = 32
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			r, err := c.Collect(q("10.0.0.1", "10.0.0.2"))
			if err != nil || len(r.Graph.Nodes()) != 2 {
				t.Errorf("collect: %v", err)
			}
		}()
	}
	// Wait until the one real collection is in flight, then release it.
	for inner.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // let the rest pile onto the flight
	close(inner.gate)
	wg.Wait()
	if inner.calls.Load() != 1 {
		t.Fatalf("N concurrent identical queries caused %d fan-outs, want 1", inner.calls.Load())
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced+st.Hits != n-1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNoTTLStillCoalescesButDoesNotRetain(t *testing.T) {
	inner := &slowColl{}
	c := New(inner, Config{Now: time.Now})
	c.Collect(q("10.0.0.1"))
	c.Collect(q("10.0.0.1"))
	if inner.calls.Load() != 2 {
		t.Fatalf("TTL=0 retained an answer (calls=%d)", inner.calls.Load())
	}
	if c.Len() != 0 {
		t.Fatalf("TTL=0 left %d entries", c.Len())
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	inner := &slowColl{err: errors.New("boom")}
	c := New(inner, Config{TTL: time.Hour, Now: time.Now})
	if _, err := c.Collect(q("10.0.0.1")); err == nil {
		t.Fatal("want error")
	}
	inner.err = nil
	if _, err := c.Collect(q("10.0.0.1")); err != nil {
		t.Fatalf("error was cached: %v", err)
	}
	if inner.calls.Load() != 2 {
		t.Fatalf("calls=%d", inner.calls.Load())
	}
}

func TestEvictionBound(t *testing.T) {
	inner := &slowColl{}
	now := time.Unix(0, 0)
	c := New(inner, Config{TTL: time.Hour, MaxEntries: 8, Now: func() time.Time {
		now = now.Add(time.Millisecond) // distinct fill times for LRU order
		return now
	}})
	for i := 0; i < 64; i++ {
		if _, err := c.Collect(q(fmt.Sprintf("10.0.%d.1", i))); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() > 9 { // MaxEntries plus at most the newest in-flight slot
		t.Fatalf("cache grew to %d entries", c.Len())
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

// TestEvictionOrderOldestFillFirst pins the eviction policy: entries
// leave in fill-time order, and a warm hit does not refresh an entry's
// age (the cache is FIFO by fill, not LRU by access — a deliberately
// cheaper policy whose order this test documents). Shards: 1 makes the
// global order deterministic.
func TestEvictionOrderOldestFillFirst(t *testing.T) {
	inner := &slowColl{}
	now := time.Unix(0, 0)
	c := New(inner, Config{TTL: time.Hour, MaxEntries: 4, Shards: 1, Now: func() time.Time {
		now = now.Add(time.Millisecond)
		return now
	}})
	for i := 0; i < 4; i++ {
		if _, err := c.Collect(q(fmt.Sprintf("10.0.%d.1", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the oldest entry; under fill-order eviction this must not
	// save it.
	if _, err := c.Collect(q("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	if got := inner.calls.Load(); got != 4 {
		t.Fatalf("warm re-read went to the inner collector (calls=%d)", got)
	}
	if _, err := c.Collect(q("10.0.9.1")); err != nil { // fifth key: evicts oldest
		t.Fatal(err)
	}
	// The three younger originals must still be warm...
	for i := 1; i < 4; i++ {
		if _, err := c.Collect(q(fmt.Sprintf("10.0.%d.1", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.calls.Load(); got != 5 {
		t.Fatalf("younger entries were evicted (calls=%d, want 5)", got)
	}
	// ...and the oldest must be gone despite its recent access.
	if _, err := c.Collect(q("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	if got := inner.calls.Load(); got != 6 {
		t.Fatalf("oldest entry survived eviction (calls=%d, want 6)", got)
	}
}

// TestEvictionSweepsAllExpiredFirst: when over capacity, every expired
// entry goes before any live one is considered — the sweep may drop more
// than the minimum needed to make room.
func TestEvictionSweepsAllExpiredFirst(t *testing.T) {
	inner := &slowColl{}
	now := time.Unix(0, 0)
	c := New(inner, Config{TTL: 10 * time.Second, MaxEntries: 4, Shards: 1, Now: func() time.Time {
		now = now.Add(time.Millisecond)
		return now
	}})
	for i := 0; i < 3; i++ {
		if _, err := c.Collect(q(fmt.Sprintf("10.0.%d.1", i))); err != nil {
			t.Fatal(err)
		}
	}
	now = now.Add(time.Minute)                          // all three now expired
	if _, err := c.Collect(q("10.0.8.1")); err != nil { // 4 entries: at capacity, no sweep yet
		t.Fatal(err)
	}
	if _, err := c.Collect(q("10.0.9.1")); err != nil { // 5th triggers the sweep
		t.Fatal(err)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d after sweep, want 2 (only the live pair)", got)
	}
	if got := c.Stats().Evictions; got != 3 {
		t.Fatalf("Evictions = %d, want 3 (every expired entry)", got)
	}
}

func TestInvalidateDropsMatchingPrefixes(t *testing.T) {
	inner := &slowColl{}
	c := New(inner, Config{TTL: time.Hour, Now: time.Now})
	base := q("10.0.0.1", "10.0.0.2")
	withHist := base
	withHist.WithHistory = true
	other := q("10.0.0.9")
	c.Collect(base)
	c.Collect(withHist)
	c.Collect(other)
	if inner.calls.Load() != 3 {
		t.Fatalf("setup calls = %d", inner.calls.Load())
	}

	// The canonical prefix for the pair catches both flag variants but
	// not the unrelated entry.
	dropped := c.Invalidate(Key(collector.Query{Hosts: base.Hosts}))
	if dropped != 2 {
		t.Fatalf("Invalidate dropped %d entries, want 2", dropped)
	}
	c.Collect(other)
	if inner.calls.Load() != 3 {
		t.Fatal("unrelated entry was invalidated")
	}
	c.Collect(base)
	c.Collect(withHist)
	if inner.calls.Load() != 5 {
		t.Fatalf("invalidated entries still warm (calls=%d)", inner.calls.Load())
	}
	if got := c.Invalidate("no-such-prefix"); got != 0 {
		t.Fatalf("phantom invalidations: %d", got)
	}
}

// TestInvalidateDuringInFlightFill pins the race the scheduler leans
// on: Invalidate while a fill is in flight must neither wedge the
// waiters nor let the superseded flight re-insert itself as warm state.
func TestInvalidateDuringInFlightFill(t *testing.T) {
	inner := &slowColl{gate: make(chan struct{})}
	c := New(inner, Config{TTL: time.Hour, Now: time.Now})
	ask := q("10.0.0.1", "10.0.0.2")
	prefix := Key(q("10.0.0.2", "10.0.0.1")) // host order does not matter
	// invalidateInFlight waits for the inner call after the seen-th — a
	// fill, blocked on the gate — drops the fill's entry out from under it
	// and opens the gate.
	invalidateInFlight := func(seen int64) {
		t.Helper()
		for inner.calls.Load() == seen {
			time.Sleep(time.Millisecond)
		}
		if dropped := c.Invalidate(prefix); dropped != 1 {
			t.Fatalf("in-flight entry not dropped (%d)", dropped)
		}
		close(inner.gate)
	}

	const n = 16
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			r, err := c.Collect(ask)
			if err != nil || len(r.Graph.Nodes()) != 2 {
				t.Errorf("collect: %v", err)
			}
		}()
	}
	invalidateInFlight(0)
	wg.Wait()
	// Every waiter was answered: by the one flight, or — a goroutine that
	// had not loaded the entry before it was dropped rightly starts anew —
	// by the one that replaced it. That second answer is warm, so the
	// retention half counts from here, with a lone leader.
	landed := inner.calls.Load()
	if landed > 2 {
		t.Fatalf("one invalidation restarted the flight %d times", landed-1)
	}
	c.Invalidate(prefix)
	inner.gate = make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Collect(ask)
	}()
	invalidateInFlight(landed)
	wg.Wait()
	// The invalidated flight must not have been retained: the next query
	// re-collects.
	inner.gate = nil
	c.Collect(ask)
	if got := inner.calls.Load(); got != landed+2 {
		t.Fatalf("superseded flight re-inserted itself (%d inner calls after %d landed, want %d)", got, landed, landed+2)
	}
}

// TestInvalidateVersusSingleflightChurn hammers Invalidate against
// concurrent identical queries; run with -race. Nothing to assert
// beyond "no deadlock, no error, no torn state".
func TestInvalidateVersusSingleflightChurn(t *testing.T) {
	inner := &slowColl{}
	c := New(inner, Config{TTL: time.Hour, Now: time.Now})
	prefix := Key(collector.Query{Hosts: q("10.0.0.1", "10.0.0.2").Hosts})

	stop := make(chan struct{})
	var inval sync.WaitGroup
	inval.Add(1)
	go func() {
		defer inval.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Invalidate(prefix)
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r, err := c.Collect(q("10.0.0.1", "10.0.0.2"))
				if err != nil || len(r.Graph.Nodes()) != 2 {
					t.Errorf("collect under churn: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	inval.Wait()
}

func TestNewRefusesNilClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a Config without a clock")
		}
	}()
	New(&slowColl{}, Config{TTL: time.Hour})
}
