package snmp_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"remos/internal/mib"
	"remos/internal/netsim"
	"remos/internal/sim"
	"remos/internal/snmp"
)

// exchangeRig is a router with seven interfaces behind an in-process
// agent, and the two exchanges the cold path is made of: the poller's
// 24-varbind Get, and one step of a table walk — 7 columns, 8 repetitions,
// 56 varbinds back, the eighth row leaving every column so the walk ends
// with the exchange.
type exchangeRig struct {
	client  *snmp.Client
	addr    string
	oids    []snmp.OID
	columns []snmp.OID
}

func newExchangeRig(t testing.TB) *exchangeRig {
	n := netsim.New(sim.NewSim())
	r := n.AddRouter("r")
	for i := 0; i < 7; i++ {
		n.Connect(r, n.AddHost(fmt.Sprintf("h%d", i)), 100e6, time.Millisecond)
	}
	n.AssignSubnets()
	n.ComputeRoutes()
	reg := snmp.NewRegistry()
	if mib.AttachAll(n, reg) != 1 {
		t.Fatal("the router got no agent")
	}
	rig := &exchangeRig{
		client: snmp.NewClient(&snmp.InProc{Registry: reg}, "public"),
		addr:   r.ManagementAddr().String(),
		columns: []snmp.OID{mib.IfIndex, mib.IfDescr, mib.IfType, mib.IfSpeed,
			mib.IfPhysAddr, mib.IfOperSt, mib.IfInOctets},
	}
	for i := uint32(1); i <= 6; i++ {
		rig.oids = append(rig.oids, mib.IfHCInOctets.Append(i), mib.IfHCOutOctets.Append(i),
			mib.IfInOctets.Append(i), mib.IfOutOctets.Append(i))
	}
	return rig
}

func (r *exchangeRig) get24(t testing.TB) {
	seen := 0
	err := r.client.GetFunc(context.Background(), r.addr, r.oids, func(vbs []snmp.VarBind) { seen = len(vbs) })
	if err != nil || seen != 24 {
		t.Fatalf("Get of 24: %d varbinds, %v", seen, err)
	}
}

// get2 is one interface's HC counter pair: the shape of a cold query's
// baseline reads.
func (r *exchangeRig) get2(t testing.TB) {
	seen := 0
	err := r.client.GetFunc(context.Background(), r.addr, r.oids[:2], func(vbs []snmp.VarBind) { seen = len(vbs) })
	if err != nil || seen != 2 {
		t.Fatalf("Get of 2: %d varbinds, %v", seen, err)
	}
}

func (r *exchangeRig) bulk7x8(t testing.TB) {
	seen := 0
	err := r.client.BulkWalkColumns(context.Background(), r.addr, nil, r.columns, 8,
		func(int, snmp.OID, snmp.Value) bool { seen++; return true })
	if err != nil || seen != 49 {
		t.Fatalf("walk of 7 columns x 7 rows: %d objects, %v", seen, err)
	}
}

// What a steady-state lock-step exchange allocates, request built to
// response consumed: nothing — the request's varbinds and encoding, the
// agent's decode and response, and the client's decode all live in pooled
// scratch, the response datagram comes from the datagram pool and goes
// back once decoded, and the layout they are answered from is the epoch's.
func TestExchangeAllocationBudget(t *testing.T) {
	if snmp.RaceEnabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	rig := newExchangeRig(t)
	for name, exchange := range map[string]func(testing.TB){"get24": rig.get24, "bulk7x8": rig.bulk7x8} {
		exchange(t) // grow the pooled scratch to the exchange's shape
		if n := testing.AllocsPerRun(200, func() { exchange(t) }); n > 0 {
			t.Errorf("%s: a steady-state exchange allocates %.0f times, want 0", name, n)
		}
	}
}

// BenchmarkAgentExchange is one whole exchange over snmp.InProc against a
// mib.DeviceView: encode, the agent's decode, lookup and encode, the
// client's decode — for two varbinds, twenty-four, and a table walk step.
// The client gives each response back, so B/op is 0 once the pools hold
// what one exchange takes.
func BenchmarkAgentExchange(b *testing.B) {
	rig := newExchangeRig(b)
	for _, c := range []struct {
		name     string
		exchange func(testing.TB)
	}{{"get2", rig.get2}, {"get24", rig.get24}, {"bulk7x8", rig.bulk7x8}} {
		b.Run(c.name, func(b *testing.B) {
			c.exchange(b) // the pools' first buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.exchange(b)
			}
		})
	}
}
