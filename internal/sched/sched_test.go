package sched

import (
	"math"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/obs"
	"remos/internal/sim"
	"remos/internal/snapshot"
	"remos/internal/topology"
)

var (
	hostA = netip.MustParseAddr("10.0.0.1")
	hostB = netip.MustParseAddr("10.0.0.2")
)

// scriptColl is a synchronous fake collector; util is read per Collect
// so tests can script utilization trajectories.
type scriptColl struct {
	calls atomic.Int64
	mu    sync.Mutex
	util  float64
}

func (c *scriptColl) Name() string { return "script" }

func (c *scriptColl) setUtil(u float64) {
	c.mu.Lock()
	c.util = u
	c.mu.Unlock()
}

func (c *scriptColl) Collect(q collector.Query) (*collector.Result, error) {
	c.calls.Add(1)
	c.mu.Lock()
	util := c.util
	c.mu.Unlock()
	g := topology.NewGraph()
	for _, h := range q.Hosts {
		g.AddNode(topology.Node{ID: h.String(), Kind: topology.HostNode, Addr: h.String()})
	}
	if len(q.Hosts) >= 2 {
		g.AddLink(topology.Link{
			From: q.Hosts[0].String(), To: q.Hosts[1].String(),
			Capacity: 10e6, UtilFromTo: util, UtilToFrom: util / 2,
		})
	}
	return &collector.Result{Graph: g}, nil
}

func newTestSched(t *testing.T, s sim.Scheduler, coll collector.Interface, mut func(*Config)) *Scheduler {
	t.Helper()
	cfg := Config{
		Collector:    coll,
		Sched:        s,
		Snapshot:     snapshot.New(snapshot.Config{Now: s.Now}),
		BaseInterval: 2 * time.Second,
		MaxInterval:  16 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	sc := New(cfg)
	t.Cleanup(sc.Stop)
	return sc
}

// pollInterval reads a target's adaptive interval off the scheduler's
// remos_sched_poll_interval_seconds gauge.
func pollInterval(reg *obs.Registry, hosts []netip.Addr) time.Duration {
	g := reg.Gauge("remos_sched_poll_interval_seconds", "current adaptive poll interval", "target", targetKey(hosts))
	return time.Duration(math.Round(g.Value() * float64(time.Second)))
}

func TestStableReadingsWidenInterval(t *testing.T) {
	s := sim.NewSim()
	coll := &scriptColl{}
	reg := obs.New()
	sc := newTestSched(t, s, coll, func(c *Config) { c.Obs = reg })
	hosts := []netip.Addr{hostA, hostB}
	sc.AddTarget(hosts)
	s.RunFor(5 * time.Minute)
	if got := pollInterval(reg, hosts); got != 16*time.Second {
		t.Fatalf("stable target interval = %v, want the 16s max", got)
	}
	if coll.calls.Load() == 0 {
		t.Fatal("no polls ran")
	}
}

// TestGapsStayInsideMaxInterval: jitter shortens the gap between two
// polls of a stable target and never stretches it past MaxInterval, so a
// caller that sets MaxInterval to a staleness bound gets the target
// re-polled inside it.
func TestGapsStayInsideMaxInterval(t *testing.T) {
	s := sim.NewSim()
	var last time.Time
	var widest time.Duration
	sc := newTestSched(t, s, &scriptColl{}, func(c *Config) {
		c.OnApply = func([]netip.Addr, *snapshot.Snapshot) {
			if !last.IsZero() {
				widest = max(widest, s.Now().Sub(last))
			}
			last = s.Now()
		}
	})
	sc.AddTarget([]netip.Addr{hostA, hostB})
	s.RunFor(10 * time.Minute)
	if widest > 16*time.Second || widest < 14*time.Second {
		t.Fatalf("widest gap between polls = %v, want within the 16s max and near it", widest)
	}
}

func TestMovementNarrowsInterval(t *testing.T) {
	s := sim.NewSim()
	coll := &scriptColl{}
	reg := obs.New()
	sc := newTestSched(t, s, coll, func(c *Config) { c.Obs = reg })
	hosts := []netip.Addr{hostA, hostB}
	sc.AddTarget(hosts)
	s.RunFor(5 * time.Minute) // settle at max
	// Every poll now sees a swing of 40% of capacity.
	stop := s.Every(time.Second, func() {
		if s.Now().Second()%2 == 0 {
			coll.setUtil(8e6)
		} else {
			coll.setUtil(4e6)
		}
	})
	defer stop.Stop()
	s.RunFor(5 * time.Minute)
	// Once the interval narrows under the 1s swing period, some polls
	// land inside the same second and see no change, so the steady state
	// oscillates just above the minimum rather than pinning to it.
	if got := pollInterval(reg, hosts); got > time.Second {
		t.Fatalf("churning target interval = %v, want it driven near the 500ms min", got)
	}
}

func TestTargetRefcounting(t *testing.T) {
	s := sim.NewSim()
	sc := newTestSched(t, s, &scriptColl{}, nil)
	hosts := []netip.Addr{hostA, hostB}
	sc.AddTarget(hosts)
	sc.AddTarget([]netip.Addr{hostB, hostA}) // same set, other order
	if sc.Targets() != 1 {
		t.Fatalf("Targets() = %d, want the orders to share one slot", sc.Targets())
	}
	sc.RemoveTarget(hosts)
	if sc.Targets() != 1 {
		t.Fatal("removed while a reference remained")
	}
	sc.RemoveTarget(hosts)
	if sc.Targets() != 0 {
		t.Fatalf("Targets() = %d after final remove", sc.Targets())
	}
	sc.RemoveTarget(hosts) // over-release is a no-op
	if sc.Targets() != 0 {
		t.Fatalf("Targets() = %d after an over-release", sc.Targets())
	}
}

func TestRemoveStopsPolling(t *testing.T) {
	s := sim.NewSim()
	coll := &scriptColl{}
	sc := newTestSched(t, s, coll, nil)
	hosts := []netip.Addr{hostA, hostB}
	sc.AddTarget(hosts)
	s.RunFor(time.Minute)
	sc.RemoveTarget(hosts)
	before := coll.calls.Load()
	s.RunFor(5 * time.Minute)
	if coll.calls.Load() != before {
		t.Fatalf("polls continued after RemoveTarget (%d -> %d)", before, coll.calls.Load())
	}
}

func TestStopIsIdempotentAndHaltsPolls(t *testing.T) {
	s := sim.NewSim()
	coll := &scriptColl{}
	sc := newTestSched(t, s, coll, nil)
	sc.AddTarget([]netip.Addr{hostA, hostB})
	s.RunFor(time.Minute)
	sc.Stop()
	sc.Stop()
	before := coll.calls.Load()
	s.RunFor(5 * time.Minute)
	if coll.calls.Load() != before {
		t.Fatal("polls continued after Stop")
	}
	sc.AddTarget([]netip.Addr{hostA, hostB}) // ignored after Stop
	if sc.Targets() != 0 {
		t.Fatal("AddTarget accepted after Stop")
	}
}

// TestOnApplyDeliversEveryPoll: every poll lands in the store, and
// OnApply is handed the generation that poll made — the current one.
func TestOnApplyDeliversEveryPoll(t *testing.T) {
	s := sim.NewSim()
	coll := &scriptColl{}
	store := snapshot.New(snapshot.Config{Now: s.Now})
	var applied atomic.Int64
	sc := newTestSched(t, s, coll, func(c *Config) {
		c.Snapshot = store
		c.OnApply = func(hosts []netip.Addr, snap *snapshot.Snapshot) {
			if snap == nil || snap != store.Current() || len(hosts) != 2 {
				t.Errorf("OnApply(%v, %v): not the generation the poll made", hosts, snap)
			}
			applied.Add(1)
		}
	})
	sc.AddTarget([]netip.Addr{hostA, hostB})
	s.RunFor(time.Minute)
	if applied.Load() != coll.calls.Load() || applied.Load() == 0 {
		t.Fatalf("OnApply ran %d times for %d polls", applied.Load(), coll.calls.Load())
	}
	if got := store.Current().Epoch(); got != snapshot.Epoch(applied.Load()) {
		t.Fatalf("the store is at generation %d after %d polls", got, applied.Load())
	}
}

// TestNewRefusesNoSnapshot: the store is where every poll goes.
func TestNewRefusesNoSnapshot(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a Config without a snapshot store")
		}
	}()
	New(Config{Collector: &scriptColl{}, Sched: sim.NewSim()})
}

func TestMetricsExported(t *testing.T) {
	s := sim.NewSim()
	reg := obs.New()
	sc := newTestSched(t, s, &scriptColl{}, func(c *Config) { c.Obs = reg })
	sc.AddTarget([]netip.Addr{hostA, hostB})
	s.RunFor(time.Minute)
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"remos_sched_polls_total",
		"remos_sched_targets 1",
		`remos_sched_poll_interval_seconds{target="10.0.0.1,10.0.0.2"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// slowWalk is a sim clock a collector can hold up: every Collect takes
// two seconds of it.
type slowWalk struct {
	sim.Scheduler
	scriptColl
	spent atomic.Int64 // nanoseconds walks have taken so far
	began atomic.Int64 // the clock (UnixNano) as the last walk began
}

func (w *slowWalk) Now() time.Time { return w.Scheduler.Now().Add(time.Duration(w.spent.Load())) }

func (w *slowWalk) Collect(q collector.Query) (*collector.Result, error) {
	w.began.Store(w.Now().UnixNano())
	w.spent.Add(int64(2 * time.Second))
	return w.scriptColl.Collect(q)
}

// TestPollStampsSnapshotWithTheInstantItBegan: the generation a poll
// produces is as old as the poll's first reading, not as young as its
// last — a two-second walk hands the snapshot plane data that is two
// seconds old already.
func TestPollStampsSnapshotWithTheInstantItBegan(t *testing.T) {
	s := sim.NewSim()
	w := &slowWalk{Scheduler: s}
	store := snapshot.New(snapshot.Config{Now: w.Now})
	sc := newTestSched(t, w, w, func(c *Config) { c.Snapshot = store })
	hosts := []netip.Addr{hostA, hostB}
	sc.AddTarget(hosts)
	for w.calls.Load() == 0 {
		if !s.Step() {
			t.Fatal("no poll was scheduled")
		}
	}
	snap := store.Current()
	if snap == nil {
		t.Fatal("the poll produced no generation")
	}
	if began := time.Unix(0, w.began.Load()); !snap.At().Equal(began) {
		t.Fatalf("the generation is stamped %v; its walk began at %v", snap.At(), began.UTC())
	}
	if store.Fresh(hosts, time.Second) != nil {
		t.Fatal("readings two seconds old pass a one-second bound")
	}
	if store.Fresh(hosts, 2*time.Second) != snap {
		t.Fatal("readings two seconds old fail a two-second bound")
	}
}
