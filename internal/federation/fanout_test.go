//go:build !race

package federation

import (
	"context"
	"runtime"
	"testing"

	"remos/internal/modeler"
	"remos/internal/netsim"
	"remos/internal/sim"
)

// TestCachedFlowsStartNoFanOut pins that a query finding every domain's
// cache entry current costs the same with the default fan-out as with
// none: no worker goroutines for work that is not there. (Not under the
// race detector, where sync.Pool sheds items and the counts wander.)
func TestCachedFlowsStartNoFanOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := sim.NewSim()
	n := netsim.New(s)
	tt := netsim.BuildTwoTier(n, netsim.TwoTierSpec{Spines: 2, Leaves: 4, HostsPerLeaf: 2})
	m := buildMesh(t, n, s, 2)
	flows := []modeler.Flow{{Src: tt.Hosts[0].Addr(), Dst: tt.Hosts[len(tt.Hosts)-1].Addr()}}
	cachedAllocs := func(parallelism int) uint64 {
		r, err := NewRouter(RouterConfig{Directory: m.dir, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		// Not testing.AllocsPerRun: it pins GOMAXPROCS to 1, the one
		// setting under which the default never fans out. The first run
		// fetches and stitches; the rest are the cached path.
		const runs = 200
		var before, after runtime.MemStats
		for i := 0; i <= runs; i++ {
			if i == 1 {
				runtime.ReadMemStats(&before)
			}
			if _, err := r.GetFlowsContext(context.Background(), flows, modeler.FlowOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs
	}
	if fanned, serial := cachedAllocs(0), cachedAllocs(1); fanned != serial {
		t.Fatalf("cached query allocates %d with the default Parallelism, %d with Parallelism 1", fanned, serial)
	}
}
