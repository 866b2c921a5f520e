package remosd

import (
	"context"
	"math/rand"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/modeler"
	"remos/internal/serve"
	"remos/internal/sim"
	"remos/internal/topology"
)

// stablePair answers every poll with the same two-host graph: a network
// that never moves, so the scheduler widens to its cap and stays there.
type stablePair struct{ calls atomic.Int64 }

func (*stablePair) Name() string { return "stable" }

func (c *stablePair) Collect(q collector.Query) (*collector.Result, error) {
	c.calls.Add(1)
	return &collector.Result{Graph: pairGraph(q.Hosts, 1e6)}, nil
}

// pairGraph is the two hosts joined by one 10 Mb/s link carrying util.
func pairGraph(hosts []netip.Addr, util float64) *topology.Graph {
	g := topology.NewGraph()
	for _, h := range hosts {
		g.AddNode(topology.Node{ID: h.String(), Kind: topology.HostNode, Addr: h.String()})
	}
	g.AddLink(topology.Link{From: hosts[0].String(), To: hosts[1].String(), Capacity: 10e6, UtilFromTo: util})
	return g
}

var testPair = []netip.Addr{netip.MustParseAddr("10.0.16.2"), netip.MustParseAddr("10.0.16.3")}

// TestCoveredPairNeverGoesStale runs the daemon's serving planes over a
// stable network for ten simulated minutes, asking about the
// scheduler-covered pair every 100 ms: the pair must always answer from a
// generation within MaxStale, and its QUERY without a walk. The
// widest gap between polls is what decides it, with the bound at its
// default, at the base poll interval, and above eight base intervals.
func TestCoveredPairNeverGoesStale(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxStale time.Duration
	}{
		{"defaults", DefaultConfig().MaxStale},
		{"max-stale 1s", time.Second},
		{"max-stale 10s", 10 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxStale = tc.maxStale
			s := sim.NewSim()
			inner := &stablePair{}
			p := newPlanes(t, cfg, s, inner)
			p.Poll.AddTarget(testPair)
			s.RunFor(cfg.SchedInterval) // the first poll lands inside a quarter base interval

			var asked, stale, walked int
			probe := s.Every(100*time.Millisecond, func() {
				asked++
				if p.Store.Fresh(testPair, cfg.MaxStale) == nil {
					stale++
				}
				before := inner.calls.Load()
				if _, err := p.Answer.Collect(collector.Query{Hosts: testPair}); err != nil {
					t.Fatal(err)
				}
				if inner.calls.Load() != before {
					walked++
				}
			})
			s.RunFor(10 * time.Minute)
			probe.Stop()
			if stale > 0 || walked > 0 {
				t.Fatalf("of %d instants, the pair's generation was older than %v at %d and a client query walked at %d",
					asked, cfg.MaxStale, stale, walked)
			}
		})
	}
}

// movingLink is testPair's link under the test's control: each Collect
// reads the utilization set at that instant, and the link remembers when
// it was read offering each availability.
type movingLink struct {
	now   func() time.Time
	util  float64
	reads map[float64][]time.Time // available bits/s -> the instants it was read
}

func (*movingLink) Name() string { return "moving" }

func (l *movingLink) Collect(q collector.Query) (*collector.Result, error) {
	avail := 10e6 - l.util
	l.reads[avail] = append(l.reads[avail], l.now())
	return &collector.Result{Graph: pairGraph(q.Hosts, l.util)}, nil
}

// readWithin reports whether avail was read in [now-bound, now].
func (l *movingLink) readWithin(avail float64, now time.Time, bound time.Duration) bool {
	for _, at := range l.reads[avail] {
		if !at.After(now) && now.Sub(at) <= bound {
			return true
		}
	}
	return false
}

// flowAvail asks the planes' Modeler, as the FLOWS verb does, what the
// pair's one flow gets.
func flowAvail(t *testing.T, p *serve.Planes) float64 {
	t.Helper()
	infos, err := p.Answer.GetFlowsContext(context.Background(),
		[]modeler.Flow{{Src: testPair[0], Dst: testPair[1]}}, modeler.FlowOptions{})
	if err != nil || len(infos) != 1 {
		t.Fatalf("FLOWS: %+v, %v", infos, err)
	}
	return infos[0].Available
}

// queryAvail asks the planes' Modeler, as the QUERY verb does, for the
// pair's graph and reads what its link offers.
func queryAvail(t *testing.T, p *serve.Planes) float64 {
	t.Helper()
	res, err := p.Answer.Collect(collector.Query{Hosts: testPair})
	if err != nil {
		t.Fatalf("QUERY: %v", err)
	}
	l := res.Graph.FindLink(testPair[0].String(), testPair[1].String())
	if l == nil {
		t.Fatalf("QUERY: no link between the pair in %d links", len(res.Graph.Links()))
	}
	return l.AvailFromTo()
}

// TestFlowsNeverAnswerFromAnOlderReading: a QUERY builds a generation
// stamped with its own reading, the link moves, and a FLOWS 1.9 s later
// answers that reading, inside the bound; one past the bound must walk
// and see the moved link. Then, over ten simulated minutes of QUERYs,
// FLOWS and link moves at random, with the pair uncovered and covered by
// the scheduler, no QUERY or FLOWS answer may be a reading older than
// MaxStale.
func TestFlowsNeverAnswerFromAnOlderReading(t *testing.T) {
	t.Run("query then flows", func(t *testing.T) {
		cfg := DefaultConfig()
		s := sim.NewSim()
		link := &movingLink{now: s.Now, util: 1e6, reads: map[float64][]time.Time{}}
		p := newPlanes(t, cfg, s, link)
		if got := queryAvail(t, p); got != 9e6 {
			t.Fatalf("QUERY answered %.0f b/s; the link offers 9e6", got)
		}
		link.util = 9e6
		s.RunFor(1900 * time.Millisecond)
		if got := flowAvail(t, p); got != 9e6 {
			t.Fatalf("FLOWS at 1.9 s answered %.0f b/s; the QUERY's reading of 9e6 is inside the bound", got)
		}
		s.RunFor(200 * time.Millisecond)
		if got := flowAvail(t, p); got != 1e6 {
			t.Fatalf("FLOWS at 2.1 s answered %.0f b/s; the link has offered 1e6 since the QUERY's reading", got)
		}
	})
	for _, covered := range []bool{false, true} {
		name := "uncovered"
		if covered {
			name = "covered"
		}
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			s := sim.NewSim()
			link := &movingLink{now: s.Now, util: 1e6, reads: map[float64][]time.Time{}}
			p := newPlanes(t, cfg, s, link)
			if covered {
				p.Poll.AddTarget(testPair)
			}
			rng := rand.New(rand.NewSource(30))
			var queries, flows, old int
			tick := s.Every(100*time.Millisecond, func() {
				var got float64
				switch rng.Intn(3) {
				case 0:
					link.util += 1e3 // every setting offers an availability of its own
					return
				case 1:
					queries++
					got = queryAvail(t, p)
				default:
					flows++
					got = flowAvail(t, p)
				}
				if !link.readWithin(got, s.Now(), cfg.MaxStale) {
					old++
				}
			})
			s.RunFor(10 * time.Minute)
			tick.Stop()
			if queries < 1000 || flows < 1000 || old > 0 {
				t.Fatalf("%d of %d QUERY and %d FLOWS answers came from no reading within %v", old, queries, flows, cfg.MaxStale)
			}
		})
	}
}
