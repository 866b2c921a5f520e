package watch

import (
	"errors"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"remos/internal/obs"
	"remos/internal/rerr"
	"remos/internal/topology"
)

var (
	hostA = netip.MustParseAddr("10.0.0.1")
	hostB = netip.MustParseAddr("10.0.0.2")
)

// pair is the watched pair as the scheduler polls it.
var pair = []netip.Addr{hostA, hostB}

// indexWithAvail builds a generation's path index whose A->B and B->A
// bottleneck available bandwidth is exactly avail (capacity 10e6).
func indexWithAvail(avail float64) *topology.PathIndex { return indexWithAvails(avail, avail) }

// indexWithAvails is indexWithAvail with A->B offering fwd and B->A rev.
func indexWithAvails(fwd, rev float64) *topology.PathIndex {
	const cap = 10e6
	g := topology.NewGraph()
	g.AddNode(topology.Node{ID: hostA.String(), Kind: topology.HostNode, Addr: hostA.String()})
	g.AddNode(topology.Node{ID: hostB.String(), Kind: topology.HostNode, Addr: hostB.String()})
	if _, err := g.AddLink(topology.Link{
		From: hostA.String(), To: hostB.String(),
		Capacity: cap, UtilFromTo: cap - fwd, UtilToFrom: cap - rev,
	}); err != nil {
		panic(err)
	}
	return topology.NewPathIndex(g)
}

func drain(t *testing.T, sub *Subscription) []Update {
	t.Helper()
	var out []Update
	for {
		select {
		case u, ok := <-sub.Updates():
			if !ok {
				return out
			}
			out = append(out, u)
		default:
			return out
		}
	}
}

func TestSpecValidation(t *testing.T) {
	r := New(Config{Now: time.Now})
	cases := []Spec{
		{},                       // no addrs, no predicate
		{Src: hostA, Dst: hostB}, // no predicate
		{Src: hostA, Below: 1e6}, // missing dst
		{Src: hostA, Dst: hostB, Below: -1, ChangeFrac: 0.1}, // negative
		{Src: hostA, Dst: hostA, ChangeFrac: 0.1},            // no path to watch
	}
	for i, sp := range cases {
		if _, err := r.Subscribe(sp); err == nil {
			t.Errorf("case %d: invalid spec %+v accepted", i, sp)
		}
	}
	sub, err := r.Subscribe(Spec{Src: hostA, Dst: hostB, ChangeFrac: 0.1})
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	sub.Close(nil)
}

func TestInitThenEdgeTriggeredBelow(t *testing.T) {
	r := New(Config{Now: time.Now})
	sub, err := r.Subscribe(Spec{Src: hostA, Dst: hostB, Below: 5e6})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close(nil)

	// Baseline above the threshold: the first evaluation pushes "init".
	r.Evaluate(pair, indexWithAvail(8e6))
	us := drain(t, sub)
	if len(us) != 1 || us[0].Reason != ReasonInit || us[0].Avail != 8e6 || us[0].Seq != 1 {
		t.Fatalf("after baseline: %+v", us)
	}

	// Still above: nothing.
	r.Evaluate(pair, indexWithAvail(7e6))
	if us := drain(t, sub); len(us) != 0 {
		t.Fatalf("no crossing, got %+v", us)
	}

	// Crosses under: one "below" push.
	r.Evaluate(pair, indexWithAvail(3e6))
	us = drain(t, sub)
	if len(us) != 1 || us[0].Reason != ReasonBelow || us[0].Avail != 3e6 || us[0].Prev != 8e6 {
		t.Fatalf("after crossing: %+v", us)
	}

	// Stays under: edge-triggered, so silent.
	r.Evaluate(pair, indexWithAvail(2e6))
	if us := drain(t, sub); len(us) != 0 {
		t.Fatalf("level-triggered push: %+v", us)
	}

	// Recovers (silently — no Above predicate), then crosses again:
	// the recovery re-arms the edge, so the watch fires again.
	r.Evaluate(pair, indexWithAvail(3e6))
	r.Evaluate(pair, indexWithAvail(9e6))
	r.Evaluate(pair, indexWithAvail(1e6))
	us = drain(t, sub)
	if len(us) != 1 || us[0].Reason != ReasonBelow {
		t.Fatalf("re-crossing: %+v", us)
	}
}

func TestInitReportsAlreadySatisfiedPredicate(t *testing.T) {
	r := New(Config{Now: time.Now})
	sub, _ := r.Subscribe(Spec{Src: hostA, Dst: hostB, Below: 5e6})
	defer sub.Close(nil)
	r.Evaluate(pair, indexWithAvail(2e6)) // already under the threshold
	us := drain(t, sub)
	if len(us) != 1 || us[0].Reason != ReasonBelow {
		t.Fatalf("want immediate below, got %+v", us)
	}
}

func TestAbovePredicate(t *testing.T) {
	r := New(Config{Now: time.Now})
	sub, _ := r.Subscribe(Spec{Src: hostA, Dst: hostB, Above: 6e6})
	defer sub.Close(nil)
	r.Evaluate(pair, indexWithAvail(4e6)) // init, under
	r.Evaluate(pair, indexWithAvail(8e6)) // crosses over
	us := drain(t, sub)
	if len(us) != 2 || us[0].Reason != ReasonInit || us[1].Reason != ReasonAbove {
		t.Fatalf("got %+v", us)
	}
}

func TestChangeFraction(t *testing.T) {
	r := New(Config{Now: time.Now})
	sub, _ := r.Subscribe(Spec{Src: hostA, Dst: hostB, ChangeFrac: 0.10})
	defer sub.Close(nil)
	r.Evaluate(pair, indexWithAvail(5e6))   // init
	r.Evaluate(pair, indexWithAvail(5.3e6)) // +6%: silent
	r.Evaluate(pair, indexWithAvail(5.6e6)) // +12% vs last push: fires
	r.Evaluate(pair, indexWithAvail(4.9e6)) // -12.5% vs 5.6e6: fires
	us := drain(t, sub)
	if len(us) != 3 {
		t.Fatalf("got %d updates: %+v", len(us), us)
	}
	for i, want := range []string{ReasonInit, ReasonChange, ReasonChange} {
		if us[i].Reason != want {
			t.Fatalf("update %d reason %q, want %q", i, us[i].Reason, want)
		}
	}
	if us[2].Prev != 5.6e6 {
		t.Fatalf("prev not tracking pushes: %+v", us[2])
	}
}

func TestRelChangeZeroBaseline(t *testing.T) {
	if relChange(0, 0) != 0 {
		t.Fatal("0->0 should be no change")
	}
	if got := relChange(1e6, 0); got < 1e18 { // +Inf
		t.Fatalf("0->1e6 relChange = %v, want +Inf", got)
	}
}

func TestEnsureReleaseRefcounting(t *testing.T) {
	var mu sync.Mutex
	ensures, releases := 0, 0
	r := New(Config{
		Now:           time.Now,
		EnsureTarget:  func([]netip.Addr) { mu.Lock(); ensures++; mu.Unlock() },
		ReleaseTarget: func([]netip.Addr) { mu.Lock(); releases++; mu.Unlock() },
	})
	spec := Spec{Src: hostA, Dst: hostB, ChangeFrac: 0.1}
	s1, _ := r.Subscribe(spec)
	// Reversed pair shares the refcount slot.
	s2, _ := r.Subscribe(Spec{Src: hostB, Dst: hostA, ChangeFrac: 0.1})
	if ensures != 1 {
		t.Fatalf("ensures = %d after two subscriptions on one pair", ensures)
	}
	s1.Close(nil)
	if releases != 0 {
		t.Fatalf("released while a watch is still active")
	}
	s2.Close(nil)
	if releases != 1 {
		t.Fatalf("releases = %d after last close", releases)
	}
	s2.Close(nil) // idempotent
	if releases != 1 {
		t.Fatalf("double close released twice")
	}
}

func TestSlowConsumerDropsNeverBlocks(t *testing.T) {
	reg := obs.New()
	r := New(Config{Now: time.Now, Obs: reg})
	sub, _ := r.Subscribe(Spec{Src: hostA, Dst: hostB, ChangeFrac: 0.001, Buf: 2})
	defer sub.Close(nil)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			// Alternate far apart so every evaluation fires.
			r.Evaluate(pair, indexWithAvail(float64(1e6*(1+i%2))))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Evaluate blocked on a slow consumer")
	}
	drops := reg.Counter("remos_watch_dropped_total", "").Value()
	if drops == 0 {
		t.Fatal("no drops recorded despite a full buffer")
	}
	// Surviving updates still carry increasing seq numbers (gaps reveal
	// the drops).
	us := drain(t, sub)
	if len(us) == 0 {
		t.Fatal("no updates at all")
	}
	last := int64(0)
	for _, u := range us {
		if u.Seq <= last {
			t.Fatalf("seq not increasing: %+v", us)
		}
		last = u.Seq
	}
}

func TestCloseWithReasonDeliversTerminalUpdate(t *testing.T) {
	r := New(Config{Now: time.Now})
	sub, _ := r.Subscribe(Spec{Src: hostA, Dst: hostB, Below: 5e6, Buf: 1})
	r.Evaluate(pair, indexWithAvail(2e6)) // fills the 1-deep buffer
	reason := rerr.Tagf(rerr.ErrCollectorUnavailable, "shutting down")
	sub.Close(reason)

	var terminal *Update
	for u := range sub.Updates() {
		u := u
		terminal = &u
	}
	if terminal == nil || terminal.Err == nil {
		t.Fatalf("no terminal update (got %+v)", terminal)
	}
	if !errors.Is(terminal.Err, rerr.ErrCollectorUnavailable) {
		t.Fatalf("terminal err %v lost its type", terminal.Err)
	}
}

func TestRegistryCloseTerminatesAllAndRejectsNew(t *testing.T) {
	r := New(Config{Now: time.Now})
	var subs []*Subscription
	for i := 0; i < 4; i++ {
		s, err := r.Subscribe(Spec{Src: hostA, Dst: hostB, ChangeFrac: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	r.Close(rerr.Tagf(rerr.ErrCollectorUnavailable, "bye"))
	for i, s := range subs {
		sawTerminal := false
		for u := range s.Updates() {
			if u.Err != nil {
				sawTerminal = true
			}
		}
		if !sawTerminal {
			t.Fatalf("sub %d: channel closed without a terminal reason", i)
		}
	}
	if r.Active() != 0 {
		t.Fatalf("Active() = %d after Close", r.Active())
	}
	if _, err := r.Subscribe(Spec{Src: hostA, Dst: hostB, ChangeFrac: 0.1}); err == nil {
		t.Fatal("Subscribe after Close succeeded")
	}
	r.Close(nil) // idempotent
}

// TestEvaluateReadsEachDirection: one poll of the pair, in either host
// order, serves both directions' watches, each with its own direction's
// availability.
func TestEvaluateReadsEachDirection(t *testing.T) {
	r := New(Config{Now: time.Now})
	fwd, _ := r.Subscribe(Spec{Src: hostA, Dst: hostB, ChangeFrac: 0.1})
	rev, _ := r.Subscribe(Spec{Src: hostB, Dst: hostA, ChangeFrac: 0.1})
	defer fwd.Close(nil)
	defer rev.Close(nil)
	r.Evaluate([]netip.Addr{hostB, hostA}, indexWithAvails(8e6, 3e6))
	if us := drain(t, fwd); len(us) != 1 || us[0].Avail != 8e6 {
		t.Fatalf("A->B watch: %+v, want one push of 8e6", us)
	}
	if us := drain(t, rev); len(us) != 1 || us[0].Avail != 3e6 {
		t.Fatalf("B->A watch: %+v, want one push of 3e6", us)
	}
}

// TestEvaluateSkipsForeignGraphs: only a poll of the watched pair, on a
// generation that routes it, is evaluated.
func TestEvaluateSkipsForeignGraphs(t *testing.T) {
	r := New(Config{Now: time.Now})
	sub, _ := r.Subscribe(Spec{Src: hostA, Dst: hostB, ChangeFrac: 0.1})
	defer sub.Close(nil)
	g := topology.NewGraph()
	g.AddNode(topology.Node{ID: "10.9.9.9", Kind: topology.HostNode, Addr: "10.9.9.9"})
	r.Evaluate(pair, topology.NewPathIndex(g))
	r.Evaluate(pair, nil)
	r.Evaluate([]netip.Addr{hostA, netip.MustParseAddr("10.9.9.9")}, indexWithAvail(5e6))
	r.Evaluate(append(slices.Clone(pair), hostA), indexWithAvail(5e6))
	if us := drain(t, sub); len(us) != 0 {
		t.Fatalf("evaluated against a generation missing the endpoints, or for another poll: %+v", us)
	}
}

func TestConcurrentSubscribeEvaluateClose(t *testing.T) {
	r := New(Config{Now: time.Now})
	stop := make(chan struct{})
	evalDone := make(chan struct{})
	go func() {
		defer close(evalDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Evaluate(pair, indexWithAvail(float64(1e6*(1+i%8))))
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s, err := r.Subscribe(Spec{
					Src: hostA, Dst: hostB,
					ChangeFrac: 0.01 * float64(1+i),
					Buf:        4,
				})
				if err != nil {
					t.Errorf("subscribe: %v", err)
					return
				}
				drain(t, s)
				s.Close(nil)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent churn wedged")
	}
	close(stop)
	<-evalDone
	if r.Active() != 0 {
		t.Fatalf("Active() = %d after all closes", r.Active())
	}
}

func TestMetricsNames(t *testing.T) {
	reg := obs.New()
	r := New(Config{Now: time.Now, Obs: reg})
	sub, _ := r.Subscribe(Spec{Src: hostA, Dst: hostB, ChangeFrac: 0.1})
	r.Evaluate(pair, indexWithAvail(5e6))
	var buf strings.Builder
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"remos_watch_active 1",
		"remos_watch_updates_total 1",
		"remos_watch_evals_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
	sub.Close(nil)
}

func TestNewRefusesNilClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a Config without a clock")
		}
	}()
	New(Config{})
}
