package netsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"remos/internal/sim"
)

// dumbbell builds the classic two-LAN topology used across the tests:
//
//	h1 --- sw1 --- r1 --- r2 --- sw2 --- h2
//	h3 ----/                      \---- h4
func dumbbell(t testing.TB, s *sim.Sim, wanBps float64) (*Network, map[string]*Device) {
	n := New(s)
	d := map[string]*Device{}
	for _, name := range []string{"h1", "h2", "h3", "h4"} {
		d[name] = n.AddHost(name)
	}
	d["sw1"] = n.AddSwitch("sw1")
	d["sw2"] = n.AddSwitch("sw2")
	d["r1"] = n.AddRouter("r1")
	d["r2"] = n.AddRouter("r2")
	lan := 100e6
	n.Connect(d["h1"], d["sw1"], lan, time.Millisecond)
	n.Connect(d["h3"], d["sw1"], lan, time.Millisecond)
	n.Connect(d["sw1"], d["r1"], lan, time.Millisecond)
	n.Connect(d["r1"], d["r2"], wanBps, 10*time.Millisecond)
	n.Connect(d["r2"], d["sw2"], lan, time.Millisecond)
	n.Connect(d["h2"], d["sw2"], lan, time.Millisecond)
	n.Connect(d["h4"], d["sw2"], lan, time.Millisecond)
	n.AssignSubnets()
	n.ComputeRoutes()
	return n, d
}

func TestAssignSubnetsGivesAddresses(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 10e6)
	_ = n
	for _, name := range []string{"h1", "h2", "h3", "h4"} {
		if !d[name].Addr().IsValid() {
			t.Fatalf("%s has no address", name)
		}
	}
	// h1 and h3 share sw1's segment with r1: same /24.
	if d["h1"].ifaces[0].Prefix != d["h3"].ifaces[0].Prefix {
		t.Fatalf("h1 and h3 in different subnets: %v vs %v",
			d["h1"].ifaces[0].Prefix, d["h3"].ifaces[0].Prefix)
	}
	if d["h1"].ifaces[0].Prefix == d["h2"].ifaces[0].Prefix {
		t.Fatal("h1 and h2 should be in different subnets")
	}
	if d["h1"].ifaces[0].IP == d["h3"].ifaces[0].IP {
		t.Fatal("duplicate address assigned")
	}
	// Switch ports carry no IP.
	for _, ifc := range d["sw1"].Ifaces() {
		if ifc.IP.IsValid() {
			t.Fatalf("switch port %s has IP %v", ifc.Name, ifc.IP)
		}
	}
}

func TestHostsGetGateway(t *testing.T) {
	s := sim.NewSim()
	_, d := dumbbell(t, s, 10e6)
	for _, h := range []string{"h1", "h2", "h3", "h4"} {
		if !d[h].Gateway.IsValid() {
			t.Fatalf("%s has no gateway", h)
		}
	}
	// h1's gateway must be r1's address on the shared segment.
	var r1IP bool
	for _, ifc := range d["r1"].Ifaces() {
		if ifc.IP == d["h1"].Gateway {
			r1IP = true
		}
	}
	if !r1IP {
		t.Fatalf("h1 gateway %v is not an r1 interface", d["h1"].Gateway)
	}
}

func TestRouterTables(t *testing.T) {
	s := sim.NewSim()
	_, d := dumbbell(t, s, 10e6)
	r1 := d["r1"]
	if len(r1.Routes()) < 3 {
		t.Fatalf("r1 has %d routes, want >=3 (two LANs + p2p)", len(r1.Routes()))
	}
	// r1 must reach h2's subnet via r2.
	rt, ok := lookupRoute(r1, d["h2"].Addr())
	if !ok {
		t.Fatal("r1 has no route to h2")
	}
	if !rt.NextHop.IsValid() {
		t.Fatal("route to remote LAN should have a next hop")
	}
	if dev := d["h2"].net.DeviceByIP(rt.NextHop); dev != d["r2"] {
		t.Fatalf("next hop owner = %v, want r2", dev)
	}
	// Direct route for its own LAN.
	rt, ok = lookupRoute(r1, d["h1"].Addr())
	if !ok || rt.NextHop.IsValid() {
		t.Fatalf("route to local LAN should be direct, got %+v ok=%v", rt, ok)
	}
}

func TestPathTraversesExpectedDevices(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 10e6)
	path, err := n.Path(d["h1"], d["h2"])
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, dev := range path {
		names = append(names, dev.Name)
	}
	want := []string{"h1", "sw1", "r1", "r2", "sw2", "h2"}
	if len(names) != len(want) {
		t.Fatalf("path = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("path = %v, want %v", names, want)
		}
	}
}

func TestPathSameSegment(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 10e6)
	path, err := n.Path(d["h1"], d["h3"])
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[1].Name != "sw1" {
		t.Fatalf("same-LAN path should be h1-sw1-h3, got %d devices", len(path))
	}
}

func TestPathDelay(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 10e6)
	delay, err := n.PathDelay(d["h1"], d["h2"])
	if err != nil {
		t.Fatal(err)
	}
	// 1+1+10+1+1 ms
	if want := 14 * time.Millisecond; delay != want {
		t.Fatalf("delay = %v, want %v", delay, want)
	}
}

func TestSingleFlowGetsWANBottleneck(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 10e6)
	f, err := n.StartFlow(d["h1"], d["h2"], FlowSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Rate(); math.Abs(got-10e6) > 1 {
		t.Fatalf("rate = %v, want 10e6", got)
	}
}

func TestTwoFlowsShareWAN(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 10e6)
	f1, _ := n.StartFlow(d["h1"], d["h2"], FlowSpec{})
	f2, _ := n.StartFlow(d["h3"], d["h4"], FlowSpec{})
	if r := f1.Rate(); math.Abs(r-5e6) > 1 {
		t.Fatalf("f1 rate = %v, want 5e6", r)
	}
	if r := f2.Rate(); math.Abs(r-5e6) > 1 {
		t.Fatalf("f2 rate = %v, want 5e6", r)
	}
	f2.Stop()
	if r := f1.Rate(); math.Abs(r-10e6) > 1 {
		t.Fatalf("after f2 stops, f1 rate = %v, want 10e6", r)
	}
}

func TestDemandCappedFlow(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 10e6)
	f1, _ := n.StartFlow(d["h1"], d["h2"], FlowSpec{Demand: 2e6})
	f2, _ := n.StartFlow(d["h3"], d["h4"], FlowSpec{})
	if r := f1.Rate(); math.Abs(r-2e6) > 1 {
		t.Fatalf("capped flow rate = %v, want 2e6", r)
	}
	if r := f2.Rate(); math.Abs(r-8e6) > 1 {
		t.Fatalf("elastic flow rate = %v, want 8e6", r)
	}
	f1.SetDemand(6e6)
	if r := f1.Rate(); math.Abs(r-5e6) > 1 {
		t.Fatalf("after raising demand, f1 = %v, want fair share 5e6", r)
	}
}

func TestCountersAdvanceWithTime(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 8e6) // 1 MB/s
	f, _ := n.StartFlow(d["h1"], d["h2"], FlowSpec{})
	s.RunFor(10 * time.Second)
	if got := f.Sent(); math.Abs(got-10e6) > 1e3 {
		t.Fatalf("sent = %v bytes, want 10e6", got)
	}
	// The WAN link interfaces saw the same octets.
	wanIfc := d["r1"].Ifaces()[1] // second iface: r1-r2 link
	_, out := wanIfc.Counters()
	if math.Abs(float64(out)-10e6) > 1e3 {
		t.Fatalf("r1 WAN out-octets = %d, want ~10e6", out)
	}
	in, _ := d["h2"].Ifaces()[0].Counters()
	if math.Abs(float64(in)-10e6) > 1e3 {
		t.Fatalf("h2 in-octets = %d, want ~10e6", in)
	}
}

func TestFiniteTransferCompletes(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 8e6) // 1 MB/s
	tput, elapsed, err := n.Transfer(d["h1"], d["h2"], 3e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; elapsed != want {
		t.Fatalf("3MB at 1MB/s took %v, want %v", elapsed, want)
	}
	if math.Abs(tput-8e6) > 1e3 {
		t.Fatalf("throughput = %v, want 8e6", tput)
	}
	if n.ActiveFlows() != 0 {
		t.Fatalf("flow lingered after completion: %d active", n.ActiveFlows())
	}
}

func TestFiniteTransferWithRateChange(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 8e6)
	// Start a competitor 1s in; it halves the rate, stretching the
	// 3 MB transfer: 1s at 1MB/s + 4s at 0.5MB/s = 5s.
	var comp *Flow
	s.After(time.Second, func() {
		comp, _ = n.StartFlow(d["h3"], d["h4"], FlowSpec{})
	})
	_, elapsed, err := n.Transfer(d["h1"], d["h2"], 3e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := 5 * time.Second; elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
	if comp == nil || comp.Done() {
		t.Fatal("competitor should still be running")
	}
	comp.Stop()
}

func TestOnCompleteCallback(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 8e6)
	done := false
	_, err := n.StartFlow(d["h1"], d["h2"], FlowSpec{Bytes: 1e6, OnComplete: func(f *Flow) {
		done = true
		if math.Abs(f.Sent()-1e6) > 1 {
			t.Errorf("Sent at completion = %v, want 1e6", f.Sent())
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(2 * time.Second)
	if !done {
		t.Fatal("OnComplete never ran")
	}
}

func TestLinkRateGroundTruth(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 10e6)
	n.StartFlow(d["h1"], d["h2"], FlowSpec{Demand: 3e6})
	wan := n.Links()[3] // r1-r2
	fwd, rev := n.LinkRate(wan)
	if math.Abs(fwd-3e6) > 1 || rev != 0 {
		t.Fatalf("LinkRate = (%v, %v), want (3e6, 0)", fwd, rev)
	}
	n.StartFlow(d["h2"], d["h1"], FlowSpec{Demand: 1e6})
	fwd, rev = n.LinkRate(wan)
	if math.Abs(fwd-3e6) > 1 || math.Abs(rev-1e6) > 1 {
		t.Fatalf("LinkRate = (%v, %v), want (3e6, 1e6)", fwd, rev)
	}
}

func TestFullDuplexIndependentDirections(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 10e6)
	f1, _ := n.StartFlow(d["h1"], d["h2"], FlowSpec{})
	f2, _ := n.StartFlow(d["h2"], d["h1"], FlowSpec{})
	if r := f1.Rate(); math.Abs(r-10e6) > 1 {
		t.Fatalf("forward flow = %v, want full 10e6 (full duplex)", r)
	}
	if r := f2.Rate(); math.Abs(r-10e6) > 1 {
		t.Fatalf("reverse flow = %v, want full 10e6 (full duplex)", r)
	}
}

func TestFDBCoversAllStations(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 10e6)
	fdb := n.FDB(d["sw1"])
	// sw1's domain has h1, h3, r1's LAN iface: 3 stations. MACs beyond
	// the r1 port stop at r1 (routers terminate the broadcast domain).
	if len(fdb) != 3 {
		t.Fatalf("sw1 FDB has %d entries, want 3", len(fdb))
	}
	want := map[MAC]bool{
		d["h1"].Ifaces()[0].MAC: true,
		d["h3"].Ifaces()[0].MAC: true,
		d["r1"].Ifaces()[0].MAC: true,
	}
	for _, e := range fdb {
		if !want[e.MAC] {
			t.Fatalf("unexpected FDB entry %v", e.MAC)
		}
	}
}

func TestFDBOnNonSwitch(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 10e6)
	if fdb := n.FDB(d["r1"]); fdb != nil {
		t.Fatalf("FDB of a router = %v, want nil", fdb)
	}
}

func TestLocateMAC(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 10e6)
	sw, port := n.LocateMAC(d["h1"].Ifaces()[0].MAC)
	if sw != d["sw1"] || port == 0 {
		t.Fatalf("LocateMAC(h1) = (%v, %d), want sw1", sw, port)
	}
	if sw, _ := n.LocateMAC(MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}); sw != nil {
		t.Fatal("unknown MAC located somewhere")
	}
}

func TestMoveHostChangesFDB(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 10e6)
	n.MoveHost(d["h3"], d["sw2"], 100e6, time.Millisecond)
	sw, _ := n.LocateMAC(d["h3"].Ifaces()[0].MAC)
	if sw != d["sw2"] {
		t.Fatalf("after move, h3 located at %v, want sw2", sw)
	}
	fdb := n.FDB(d["sw1"])
	for _, e := range fdb {
		if e.MAC == d["h3"].Ifaces()[0].MAC {
			t.Fatal("h3 still in sw1's FDB after move")
		}
	}
}

func TestScriptBurstsTruth(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 100e6)
	start := s.Now()
	truth, err := n.ScriptBursts(d["h1"], d["h2"], []Burst{
		{Start: start.Add(1 * time.Second), Dur: 2 * time.Second, Rate: 5e6},
		{Start: start.Add(5 * time.Second), Dur: 1 * time.Second, Rate: 20e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	wan := n.Links()[3]
	s.RunUntil(start.Add(1500 * time.Millisecond))
	if fwd, _ := n.LinkRate(wan); math.Abs(fwd-5e6) > 1 {
		t.Fatalf("during burst 1, link rate = %v, want 5e6", fwd)
	}
	if got := truth(start.Add(1500 * time.Millisecond)); got != 5e6 {
		t.Fatalf("truth = %v, want 5e6", got)
	}
	s.RunUntil(start.Add(4 * time.Second))
	if fwd, _ := n.LinkRate(wan); fwd != 0 {
		t.Fatalf("between bursts, link rate = %v, want 0", fwd)
	}
	s.RunUntil(start.Add(5500 * time.Millisecond))
	if fwd, _ := n.LinkRate(wan); math.Abs(fwd-20e6) > 1 {
		t.Fatalf("during burst 2, link rate = %v, want 20e6", fwd)
	}
	s.RunUntil(start.Add(10 * time.Second))
	if n.ActiveFlows() != 0 {
		t.Fatalf("%d flows still active after bursts", n.ActiveFlows())
	}
}

func TestCrossTrafficFluctuates(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 10e6)
	ct, err := n.StartCrossTraffic(d["h1"], d["h2"], CrossTrafficSpec{
		Mean: 4e6, Jitter: 0.3, Period: time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for i := 0; i < 30; i++ {
		s.RunFor(time.Second)
		seen[int64(ct.Demand())] = true
		if ct.Demand() < 0 || ct.Demand() > 8e6 {
			t.Fatalf("demand %v escaped [0, 2*mean]", ct.Demand())
		}
	}
	if len(seen) < 5 {
		t.Fatalf("demand barely moved: %d distinct values in 30s", len(seen))
	}
	ct.Stop()
	if n.ActiveFlows() != 0 {
		t.Fatal("cross traffic flow not removed on Stop")
	}
}

func TestFlowBetweenNonHostsRejected(t *testing.T) {
	s := sim.NewSim()
	n, d := dumbbell(t, s, 10e6)
	if _, err := n.StartFlow(d["r1"], d["h1"], FlowSpec{}); err == nil {
		t.Fatal("flow from a router was accepted")
	}
}

func TestDisconnectedHostsError(t *testing.T) {
	s := sim.NewSim()
	n := New(s)
	a := n.AddHost("a")
	b := n.AddHost("b")
	sw := n.AddSwitch("s")
	n.Connect(a, sw, 1e6, 0)
	// b unconnected
	n.AssignSubnets()
	n.ComputeRoutes()
	if _, err := n.StartFlow(a, b, FlowSpec{}); err == nil {
		t.Fatal("flow to unconnected host was accepted")
	}
}

func TestSeparateLANsWithoutRouterUnreachable(t *testing.T) {
	s := sim.NewSim()
	n := New(s)
	a := n.AddHost("a")
	b := n.AddHost("b")
	s1 := n.AddSwitch("s1")
	s2 := n.AddSwitch("s2")
	n.Connect(a, s1, 1e6, 0)
	n.Connect(b, s2, 1e6, 0)
	n.AssignSubnets()
	n.ComputeRoutes()
	if _, err := n.StartFlow(a, b, FlowSpec{}); err == nil {
		t.Fatal("cross-LAN flow with no router was accepted")
	}
}

// TestDeterministicAddressing: two draws of one random fabric are one
// network, byte for byte: the same topology text, addresses included,
// and the same device names in the same order.
func TestDeterministicAddressing(t *testing.T) {
	f := func(seed int64) bool {
		a, b := RandomFabric(sim.NewSim(), seed), RandomFabric(sim.NewSim(), seed)
		if ta, tb := fabricText(t, a), fabricText(t, b); ta != tb {
			t.Logf("%s drew twice:\n%s\n%s", a.Shape, ta, tb)
			return false
		}
		return true
	}
	if err := quick.Check(f, fabricChecks(0.6)); err != nil {
		t.Fatal(err)
	}
}

func TestTransferRequiresSimScheduler(t *testing.T) {
	n := New(sim.Real{})
	a := n.AddHost("a")
	b := n.AddHost("b")
	sw := n.AddSwitch("s")
	n.Connect(a, sw, 1e6, 0)
	n.Connect(b, sw, 1e6, 0)
	n.AssignSubnets()
	n.ComputeRoutes()
	if _, _, err := n.Transfer(a, b, 100, 0); err == nil {
		t.Fatal("Transfer on a real scheduler should refuse")
	}
}

func TestDuplicateDeviceNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate name")
		}
	}()
	n := New(sim.NewSim())
	n.AddHost("x")
	n.AddHost("x")
}

func BenchmarkResolvePathDumbbell(b *testing.B) {
	s := sim.NewSim()
	n, d := dumbbell(b, s, 10e6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := n.Path(d["h1"], d["h2"]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReallocate32Flows(b *testing.B) {
	s := sim.NewSim()
	n, d := dumbbell(b, s, 10e6)
	var flows []*Flow
	for i := 0; i < 32; i++ {
		f, err := n.StartFlow(d["h1"], d["h2"], FlowSpec{})
		if err != nil {
			b.Fatal(err)
		}
		flows = append(flows, f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flows[i%32].SetDemand(float64(1e5 + i%7*1e5))
	}
}
