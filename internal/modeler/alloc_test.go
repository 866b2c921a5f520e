package modeler

import (
	"context"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"remos/internal/netsim"
	"remos/internal/obs"
	"remos/internal/snapshot"
)

// TestSnapshotFlowsAllocationBudget pins what a snapshot-backed flow
// query allocates with the metrics registry on and no trace to open: the
// answer and the slab its paths share — the host set stays on the stack,
// nothing for a trace label nobody reads, nothing to find the query
// counter, no endpoint rendered as text, nothing per hop in the path
// index (33 before the first three were fixed, 10 before the rest, 3
// while the host set went on the heap).
func TestSnapshotFlowsAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	ck := &testClock{t: time.Unix(1000, 0)}
	reg := obs.New()
	m := New(Config{
		Collector: &countingColl{}, Obs: reg, MaxStale: 5 * time.Second,
		Snapshot: snapshot.New(snapshot.Config{Now: ck.Now}),
	})
	flows := []Flow{{Src: a("10.0.1.1"), Dst: a("10.0.2.1")}, {Src: a("10.0.1.2"), Dst: a("10.0.2.1")}}
	ctx := context.Background()
	if _, err := m.GetFlowsContext(ctx, flows, FlowOptions{}); err != nil { // cold walk fills the snapshot
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := m.GetFlowsContext(ctx, flows, FlowOptions{}); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("snapshot-backed GetFlows allocates %.0f times per 2-flow query, want <= 2", n)
	}
	if got := reg.Counter("remos_modeler_queries_total", "", "kind", "flows").Value(); got < 200 {
		t.Fatalf("flows counter = %v after 200+ queries", got)
	}

	// The shape of bench/'s scale queries: 8 flows from 3 sources, 11
	// distinct hosts of 16 endpoints.
	m, hosts := twoTierSnapshot(t, netsim.TwoTierSpec{Spines: 2, Leaves: 4, HostsPerLeaf: 8}, nil)
	flows = flows[:0]
	for i := 0; i < 8; i++ {
		flows = append(flows, Flow{Src: hosts[i%3], Dst: hosts[3+i]})
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := m.GetFlowsContext(ctx, flows, FlowOptions{}); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("snapshot-backed GetFlows allocates %.0f times per 8-flow query, want <= 2", n)
	}
}

// TestDedupeHostsKeepsFirstSeenOrder holds both of dedupeHosts' ways —
// the scan up to dedupeScanMax hosts, the map above — to the plain
// definition, the caller's slice to what it was, and the positions
// compactHosts reports to where each host given ended up.
func TestDedupeHostsKeepsFirstSeenOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 16, dedupeScanMax - 1, dedupeScanMax, dedupeScanMax + 1, 3 * dedupeScanMax} {
		for trial := 0; trial < 20; trial++ {
			hosts := make([]netip.Addr, n)
			for i := range hosts {
				hosts[i] = netip.AddrFrom4([4]byte{10, 0, 0, byte(rng.Intn(n/2 + 1))})
			}
			given := slices.Clone(hosts)
			var want []netip.Addr
			for i, h := range hosts {
				if slices.Index(hosts, h) == i {
					want = append(want, h)
				}
			}
			if got := dedupeHosts(hosts); !slices.Equal(got, want) {
				t.Fatalf("dedupeHosts(%v) = %v, want %v", hosts, got, want)
			}
			if !slices.Equal(hosts, given) {
				t.Fatalf("dedupeHosts rewrote its argument: %v, was %v", hosts, given)
			}
			at := make([]int32, n)
			got := compactHosts(hosts, at)
			if !slices.Equal(got, want) {
				t.Fatalf("compactHosts(%v) = %v, want %v", given, got, want)
			}
			for i, h := range given {
				if got[at[i]] != h {
					t.Fatalf("compactHosts(%v): host %d, %v, reported at %d of %v", given, i, h, at[i], got)
				}
			}
		}
	}
}
