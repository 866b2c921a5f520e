package snmpcoll

import (
	"context"
	"net/netip"
	"sync"
	"testing"
	"unsafe"

	"remos/internal/collector"
	"remos/internal/mib"
	"remos/internal/sim"
	"remos/internal/snmp"
)

// TestSparseIfIndexLookups walks a router that numbers its interfaces 2,
// 5, 9 and 1000001, with no ifPhysAddress row for 9 and no ifSpeed row
// for 5, so the lock-step walk meets the two columns out of step and
// must place an interface between two it already holds. Every lookup
// answers what a map by ifIndex would: an interface the agent did not
// report reads speed 0 and no MAC. The view holds the four interfaces it
// was told of, not a table as long as the largest ifIndex.
func TestSparseIfIndexLookups(t *testing.T) {
	addr := netip.MustParseAddr("10.0.1.1")
	speeds := map[int]float64{2: 1e8, 9: 1e9, 1000001: 4e9}
	macs := map[int]collector.MAC{2: {2, 0, 0, 0, 0, 2}, 5: {2, 0, 0, 0, 0, 5}, 1000001: {2, 0, 0, 0, 0, 1}}
	var binds []snmp.Binding
	bind := func(o snmp.OID, v snmp.Value) { binds = append(binds, snmp.Binding{Name: o, Value: v}) }
	bind(mib.SysName, snmp.Str("sparse"))
	bind(mib.SysUpTime, snmp.Ticks(100))
	bind(mib.IfNumber, snmp.Int64(4))
	for idx, s := range speeds {
		bind(mib.IfSpeed.Append(uint32(idx)), snmp.Gauge(uint32(s)))
	}
	for idx, m := range macs {
		bind(mib.IfPhysAddr.Append(uint32(idx)), snmp.Octets(m[:]))
	}
	bind(mib.IPAdEntIfIndex.Append(10, 0, 1, 1), snmp.Int64(2))
	bind(mib.IPAdEntIfIndex.Append(10, 0, 9, 1), snmp.Int64(1000001))
	bind(mib.IPRouteDest.Append(10, 0, 9, 0), snmp.IPv4([4]byte{10, 0, 9, 0}))
	bind(mib.IPRouteMask.Append(10, 0, 9, 0), snmp.IPv4([4]byte{255, 255, 255, 0}))
	bind(mib.IPRouteNext.Append(10, 0, 9, 0), snmp.IPv4([4]byte{}))
	bind(mib.IPRouteIfIdx.Append(10, 0, 9, 0), snmp.Int64(1000001))
	reg := snmp.NewRegistry()
	reg.Register(addr.String(), &snmp.Agent{Community: "public", View: snmp.NewTable(binds)})
	c := New(Config{Transport: &snmp.InProc{Registry: reg}, Community: "public", Sched: sim.NewSim()})
	defer c.Stop()

	ri, err := c.fetchRouter(context.Background(), c.client(nil), addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ri.ifaces) != 4 {
		t.Fatalf("the view holds %d interfaces, want the 4 the agent reported", len(ri.ifaces))
	}
	for i := 1; i < len(ri.ifaces); i++ {
		if ri.ifaces[i-1].index >= ri.ifaces[i].index {
			t.Fatalf("interfaces out of order: %+v", ri.ifaces)
		}
	}
	for _, idx := range []int{-1, 0, 1, 2, 3, 5, 8, 9, 10, 1000000, 1000001, 1000002} {
		if got := ri.speed(idx); got != speeds[idx] {
			t.Errorf("speed(%d) = %v, want %v", idx, got, speeds[idx])
		}
		want, wantOK := macs[idx]
		if got, ok := ri.mac(idx); got != want || ok != wantOK {
			t.Errorf("mac(%d) = %v, %t, want %v, %t", idx, got, ok, want, wantOK)
		}
	}
	if e, ok := ri.lpm(netip.MustParseAddr("10.0.9.7")); !ok || e.ifIndex != 1000001 || ri.speed(e.ifIndex) != 4e9 {
		t.Fatalf("the route to 10.0.9.7 = %+v (%t), want out of if 1000001 at 4 Gb/s", e, ok)
	}
}

// TestAddressNameTable: every name is the address's text; the table keeps
// at most poolMax of them, and names past the bound still render;
// DropCaches keeps the table, so a name asked again after it is the string
// rendered before; and concurrent callers, some past the bound, agree.
func TestAddressNameTable(t *testing.T) {
	c := New(Config{Sched: sim.NewSim()})
	defer c.Stop()
	nth := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}) }
	const n = poolMax + 100
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range n {
				a := nth((i + w*n/4) % n)
				if got := c.name(a); got != a.String() {
					t.Errorf("name(%v) = %q", a, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(c.names) != poolMax {
		t.Fatalf("the table holds %d names after %d addresses, want the bound %d", len(c.names), n, poolMax)
	}
	var kept netip.Addr
	for a := range c.names {
		kept = a
		break
	}
	before := c.name(kept)
	c.DropCaches()
	if len(c.names) != poolMax {
		t.Fatalf("DropCaches left %d names of %d", len(c.names), poolMax)
	}
	if after := c.name(kept); unsafe.StringData(after) != unsafe.StringData(before) {
		t.Fatalf("%v was rendered again after DropCaches", kept)
	}
	past := nth(n + 1)
	if got := c.name(past); got != past.String() || len(c.names) != poolMax {
		t.Fatalf("past the bound: name %q, table of %d", got, len(c.names))
	}
}
