package modeler

import (
	"context"
	"testing"
	"time"

	"remos/internal/obs"
	"remos/internal/snapshot"
)

// TestSnapshotFlowsAllocationBudget pins what a snapshot-backed flow
// query allocates with the metrics registry on and no trace to open:
// the deduped host set, the request strings, the answer — nothing for a
// trace label nobody reads, nothing to find the query counter, nothing
// per hop in the path index (33 before the three were fixed).
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
	}); n > 10 {
		t.Fatalf("snapshot-backed GetFlows allocates %.0f times per 2-flow query, want <= 10", n)
	}
	if got := reg.Counter("remos_modeler_queries_total", "", "kind", "flows").Value(); got < 200 {
		t.Fatalf("flows counter = %v after 200+ queries", got)
	}
}
