package mib

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"remos/internal/netsim"
	"remos/internal/sim"
	"remos/internal/snmp"
)

// testNet builds h1—sw—r1—r2—h2 with agents attached.
func testNet(t testing.TB) (*sim.Sim, *netsim.Network, *snmp.Client, map[string]*netsim.Device) {
	t.Helper()
	s := sim.NewSim()
	n := netsim.New(s)
	d := map[string]*netsim.Device{
		"h1": n.AddHost("h1"),
		"h2": n.AddHost("h2"),
		"sw": n.AddSwitch("sw"),
		"r1": n.AddRouter("r1"),
		"r2": n.AddRouter("r2"),
	}
	n.Connect(d["h1"], d["sw"], 100e6, time.Millisecond)
	n.Connect(d["sw"], d["r1"], 100e6, time.Millisecond)
	n.Connect(d["r1"], d["r2"], 10e6, 5*time.Millisecond)
	n.Connect(d["r2"], d["h2"], 100e6, time.Millisecond)
	n.AssignSubnets()
	n.ComputeRoutes()
	reg := snmp.NewRegistry()
	if got := AttachAll(n, reg); got != 3 { // sw, r1, r2 (hosts unreachable by default)
		t.Fatalf("AttachAll attached %d agents, want 3", got)
	}
	c := snmp.NewClient(&snmp.InProc{Registry: reg}, "public")
	return s, n, c, d
}

func TestSystemGroup(t *testing.T) {
	s, _, c, d := testNet(t)
	addr := d["r1"].ManagementAddr().String()
	v, err := c.GetOne(context.Background(), addr, SysName)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Bytes) != "r1" {
		t.Fatalf("sysName = %q", v.Bytes)
	}
	s.RunFor(30 * time.Second)
	v, err = c.GetOne(context.Background(), addr, SysUpTime)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != snmp.KindTimeTicks || v.Int != 3000 {
		t.Fatalf("sysUpTime after 30s = %v, want 3000 ticks", v)
	}
}

func TestIfTable(t *testing.T) {
	_, _, c, d := testNet(t)
	addr := d["r1"].ManagementAddr().String()
	v, err := c.GetOne(context.Background(), addr, IfNumber)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != 2 {
		t.Fatalf("r1 ifNumber = %d, want 2", v.Int)
	}
	// WAN interface speed.
	v, err = c.GetOne(context.Background(), addr, IfSpeed.Append(2))
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != snmp.KindGauge32 || v.Int != 10_000_000 {
		t.Fatalf("ifSpeed.2 = %v, want Gauge32(10000000)", v)
	}
}

func TestIfSpeedCapsAtGauge32(t *testing.T) {
	s := sim.NewSim()
	n := netsim.New(s)
	a := n.AddRouter("a")
	b := n.AddRouter("b")
	n.Connect(a, b, 10e9, 0) // 10 Gbps exceeds Gauge32
	n.AssignSubnets()
	n.ComputeRoutes()
	view := NewDeviceView(n, a)
	v, ok := view.Table().Get(IfSpeed.Append(1))
	if !ok || v.Int != 4294967295 {
		t.Fatalf("10G ifSpeed = %v, want Gauge32 ceiling", v)
	}
}

func TestOctetCountersThroughSNMP(t *testing.T) {
	s, n, c, d := testNet(t)
	addr := d["r1"].ManagementAddr().String()
	before, err := c.GetOne(context.Background(), addr, IfOutOctets.Append(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.StartFlow(d["h1"], d["h2"], netsim.FlowSpec{Demand: 8e6}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(10 * time.Second)
	after, err := c.GetOne(context.Background(), addr, IfOutOctets.Append(2))
	if err != nil {
		t.Fatal(err)
	}
	delta := uint32(after.Int) - uint32(before.Int)
	if delta != 10_000_000 {
		t.Fatalf("octet delta = %d, want 10e6 (1MB/s for 10s)", delta)
	}
}

func TestCounter32Wraps(t *testing.T) {
	s, n, c, d := testNet(t)
	addr := d["r1"].ManagementAddr().String()
	if _, err := n.StartFlow(d["h1"], d["h2"], netsim.FlowSpec{Demand: 10e6}); err != nil {
		t.Fatal(err)
	}
	// 10 Mbit/s = 1.25 MB/s; 2^32 bytes take ~3436s. Run past one wrap.
	s.RunFor(4000 * time.Second)
	v, err := c.GetOne(context.Background(), addr, IfOutOctets.Append(2))
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(1.25e6 * 4000)
	if uint32(v.Int) != uint32(total) {
		t.Fatalf("wrapped counter = %d, want %d", uint32(v.Int), uint32(total))
	}
	if uint64(v.Int) == total {
		t.Fatal("counter did not wrap at 32 bits")
	}
}

func TestRouteTable(t *testing.T) {
	_, n, c, d := testNet(t)
	addr := d["r1"].ManagementAddr().String()
	var dests []string
	err := c.Walk(context.Background(), addr, IPRouteDest, func(o snmp.OID, v snmp.Value) bool {
		dests = append(dests, v.String())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dests) != 3 {
		t.Fatalf("r1 advertises %d routes, want 3: %v", len(dests), dests)
	}
	// Next hop for h2's subnet must be r2.
	h2 := d["h2"].Addr().As4()
	sub := snmp.OID{uint32(h2[0]), uint32(h2[1]), uint32(h2[2]), 0}
	v, err := c.GetOne(context.Background(), addr, IPRouteNext.Append(sub...))
	if err != nil {
		t.Fatal(err)
	}
	nh := v.Bytes
	r2ifc := n.IfaceByIP(d["r1"].Routes()[0].NextHop)
	_ = r2ifc
	if v.Kind != snmp.KindIPAddress || len(nh) != 4 {
		t.Fatalf("next hop value %v", v)
	}
	owner := n.DeviceByIP(netip.AddrFrom4(addrFrom4(nh)))
	if owner != d["r2"] {
		t.Fatalf("next hop owner = %v, want r2", owner)
	}
}

func TestRouteMask(t *testing.T) {
	_, _, c, d := testNet(t)
	addr := d["r1"].ManagementAddr().String()
	h1 := d["h1"].Addr().As4()
	sub := snmp.OID{uint32(h1[0]), uint32(h1[1]), uint32(h1[2]), 0}
	v, err := c.GetOne(context.Background(), addr, IPRouteMask.Append(sub...))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{255, 255, 240, 0} // emulator segments are /20s
	for i := range want {
		if v.Bytes[i] != want[i] {
			t.Fatalf("mask = %v, want /20", v.Bytes)
		}
	}
}

func TestIPForwardingFlag(t *testing.T) {
	_, _, c, d := testNet(t)
	v, err := c.GetOne(context.Background(), d["r1"].ManagementAddr().String(), IPForwarding)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != 1 {
		t.Fatalf("router ipForwarding = %d, want 1", v.Int)
	}
	v, err = c.GetOne(context.Background(), d["sw"].ManagementAddr().String(), IPForwarding)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != 2 {
		t.Fatalf("switch ipForwarding = %d, want 2", v.Int)
	}
}

func TestBridgeMIBFdb(t *testing.T) {
	_, n, c, d := testNet(t)
	addr := d["sw"].ManagementAddr().String()
	v, err := c.GetOne(context.Background(), addr, Dot1dBaseNumPorts)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != 2 {
		t.Fatalf("numPorts = %d, want 2", v.Int)
	}
	ports := map[string]int64{}
	err = c.Walk(context.Background(), addr, Dot1dTpFdbPort, func(o snmp.OID, v snmp.Value) bool {
		mac := o[len(o)-6:]
		ports[snmp.OID(mac).String()] = v.Int
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// sw's domain: h1 and r1's segment iface.
	if len(ports) != 2 {
		t.Fatalf("FDB rows = %d, want 2 (%v)", len(ports), ports)
	}
	h1mac := d["h1"].Ifaces()[0].MAC
	key := snmp.OID(macSub(h1mac)).String()
	if p, ok := ports[key]; !ok || p != 1 {
		t.Fatalf("h1 learned on port %d, want 1 (map %v)", p, ports)
	}
	_ = n
}

func TestFdbReflectsHostMove(t *testing.T) {
	_, n, c, d := testNet(t)
	// Add a second switch hanging off sw and move h1 to it.
	sw2 := n.AddSwitch("sw2")
	n.Connect(d["sw"], sw2, 100e6, time.Millisecond)
	reg := snmp.NewRegistry()
	AttachAll(n, reg)
	c = snmp.NewClient(&snmp.InProc{Registry: reg}, "public")

	addr := d["sw"].ManagementAddr().String()
	h1mac := macSub(d["h1"].Ifaces()[0].MAC)
	v, err := c.GetOne(context.Background(), addr, Dot1dTpFdbPort.Append(h1mac...))
	if err != nil {
		t.Fatal(err)
	}
	portBefore := v.Int
	n.MoveHost(d["h1"], sw2, 100e6, time.Millisecond)
	v, err = c.GetOne(context.Background(), addr, Dot1dTpFdbPort.Append(h1mac...))
	if err != nil {
		t.Fatal(err)
	}
	if v.Int == portBefore {
		t.Fatalf("FDB port unchanged (%d) after host move", v.Int)
	}
}

func TestHostsHaveNoAgentByDefault(t *testing.T) {
	_, _, c, d := testNet(t)
	if _, err := c.Get(context.Background(), d["h1"].Addr().String(), SysName); err == nil {
		t.Fatal("host answered SNMP; hosts should be dark by default")
	}
}

func TestFullWalkTerminates(t *testing.T) {
	_, _, c, d := testNet(t)
	rows := 0
	err := c.BulkWalk(context.Background(), d["r1"].ManagementAddr().String(), snmp.MustParseOID("1.3.6.1.2.1"), 16,
		func(snmp.OID, snmp.Value) bool {
			rows++
			return rows < 10000
		})
	if err != nil {
		t.Fatal(err)
	}
	if rows == 0 || rows >= 10000 {
		t.Fatalf("full walk saw %d rows", rows)
	}
}

func addrFrom4(b []byte) (a [4]byte) {
	copy(a[:], b)
	return
}

func BenchmarkDeviceViewNext(b *testing.B) {
	s := sim.NewSim()
	n := netsim.New(s)
	sw := n.AddSwitch("sw")
	for i := 0; i < 64; i++ {
		h := n.AddHost(hostName(i))
		n.Connect(h, sw, 100e6, 0)
	}
	n.AssignSubnets()
	n.ComputeRoutes()
	view := NewDeviceView(n, sw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := Dot1dTpFdbPort.Clone()
		for {
			// One GetNext request: the layout, a search, a read.
			t := view.Table()
			at := t.Seek(cur)
			if at == t.Len() {
				break
			}
			next, _ := t.At(at)
			if !next.HasPrefix(Dot1dTpFdbPort) {
				break
			}
			cur = next
		}
	}
}

// BenchmarkDeviceViewBuild lays out one wing of the Fig. 3 campus — a
// gateway router behind a core switch, an aggregation switch and four edge
// switches of 16 hosts — from its router and from one edge switch: the
// per-epoch build every host move makes each agent pay, name and fixed
// value encoding included.
func BenchmarkDeviceViewBuild(b *testing.B) {
	n := netsim.New(sim.NewSim())
	gw := n.AddRouter("gw0")
	n.Connect(gw, n.AddSwitch("core-sw"), 1e9, time.Millisecond)
	agg := n.AddSwitch("agg0")
	n.Connect(agg, gw, 1e9, time.Millisecond)
	var edge *netsim.Device
	for e := 0; e < 4; e++ {
		edge = n.AddSwitch(fmt.Sprintf("edge0-%d", e))
		n.Connect(edge, agg, 1e9, time.Millisecond)
		for h := 0; h < 16; h++ {
			n.Connect(n.AddHost(fmt.Sprintf("h0-%d", 16*e+h)), edge, 100e6, time.Millisecond)
		}
	}
	n.AssignSubnets()
	n.ComputeRoutes()
	for _, dev := range []*netsim.Device{gw, edge} {
		view := NewDeviceView(n, dev)
		b.Run(dev.Kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				view.build()
			}
		})
	}
}

func hostName(i int) string { return "h" + string(rune('a'+i/26)) + string(rune('a'+i%26)) }
