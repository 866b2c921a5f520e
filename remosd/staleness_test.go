package remosd

import (
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/collector/qcache"
	"remos/internal/sim"
	"remos/internal/snapshot"
	"remos/internal/topology"
)

// stablePair answers every poll with the same two-host graph: a network
// that never moves, so the scheduler widens to its cap and stays there.
type stablePair struct{ calls atomic.Int64 }

func (*stablePair) Name() string { return "stable" }

func (c *stablePair) Collect(q collector.Query) (*collector.Result, error) {
	c.calls.Add(1)
	g := topology.NewGraph()
	for _, h := range q.Hosts {
		g.AddNode(topology.Node{ID: h.String(), Kind: topology.HostNode, Addr: h.String()})
	}
	g.AddLink(topology.Link{From: q.Hosts[0].String(), To: q.Hosts[1].String(), Capacity: 10e6, UtilFromTo: 1e6})
	return &collector.Result{Graph: g}, nil
}

// TestCoveredPairNeverGoesStale runs the daemon's poll plane over the
// warm-query cache and the snapshot store for ten simulated minutes of a
// stable network, asking about the scheduler-covered pair every 100 ms:
// the pair must always answer from a generation within SnapshotStale
// and, when the cache keeps answers, from the cache without a walk. The
// widest gap between polls is what decides it, under the default bounds,
// with the cache's retention off, and with a snapshot bound tighter than
// the cache's.
func TestCoveredPairNeverGoesStale(t *testing.T) {
	pair := []netip.Addr{netip.MustParseAddr("10.0.16.2"), netip.MustParseAddr("10.0.16.3")}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"defaults", func(*Config) {}},
		{"qcache-ttl 0", func(c *Config) { c.QueryCacheTTL = 0 }},
		{"snapshot-stale 2s", func(c *Config) { c.SnapshotStale = 2 * time.Second }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			s := sim.NewSim()
			inner := &stablePair{}
			cache := qcache.New(inner, qcache.Config{TTL: cfg.QueryCacheTTL, Now: s.Now})
			store := snapshot.New(snapshot.Config{Now: s.Now})
			plane := cfg.pollPlane(s, cache, store, nil, nil)
			defer plane.Stop()
			plane.AddTarget(pair)
			s.RunFor(cfg.SchedInterval) // the first poll lands inside a quarter base interval

			var asked, stale, walked int
			probe := s.Every(100*time.Millisecond, func() {
				asked++
				if store.Fresh(pair, cfg.SnapshotStale) == nil {
					stale++
				}
				if cfg.QueryCacheTTL > 0 {
					before := inner.calls.Load()
					if _, err := cache.Collect(collector.Query{Hosts: pair}); err != nil {
						t.Fatal(err)
					}
					if inner.calls.Load() != before {
						walked++
					}
				}
			})
			s.RunFor(10 * time.Minute)
			probe.Stop()
			if stale > 0 || walked > 0 {
				t.Fatalf("of %d instants, the pair's generation was older than %v at %d and a client query walked at %d",
					asked, cfg.SnapshotStale, stale, walked)
			}
		})
	}
}
