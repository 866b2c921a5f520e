package bridgecoll

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/mib"
	"remos/internal/netsim"
	"remos/internal/sim"
	"remos/internal/snmp"
)

// lan builds a three-level switched LAN:
//
//	      core
//	     /    \
//	  eA        eB        (edge switches)
//	 / | \     / | \
//	h0 h1 r   h2 h3 h4
//
// The core switch has no directly attached stations — the hard case for
// FDB inference, solvable because bridges appear as stations in each
// other's FDBs.
func lan(t testing.TB) (*sim.Sim, *netsim.Network, *Collector, map[string]*netsim.Device) {
	t.Helper()
	s := sim.NewSim()
	n := netsim.New(s)
	d := map[string]*netsim.Device{
		"core": n.AddSwitch("core"),
		"eA":   n.AddSwitch("eA"),
		"eB":   n.AddSwitch("eB"),
		"r":    n.AddRouter("r"),
	}
	for _, h := range []string{"h0", "h1", "h2", "h3", "h4"} {
		d[h] = n.AddHost(h)
	}
	n.Connect(d["eA"], d["core"], 1e9, time.Millisecond)
	n.Connect(d["eB"], d["core"], 1e9, time.Millisecond)
	n.Connect(d["h0"], d["eA"], 100e6, time.Millisecond)
	n.Connect(d["h1"], d["eA"], 100e6, time.Millisecond)
	n.Connect(d["r"], d["eA"], 1e9, time.Millisecond)
	n.Connect(d["h2"], d["eB"], 100e6, time.Millisecond)
	n.Connect(d["h3"], d["eB"], 100e6, time.Millisecond)
	n.Connect(d["h4"], d["eB"], 100e6, time.Millisecond)
	n.AssignSubnets()
	n.ComputeRoutes()
	reg := snmp.NewRegistry()
	mib.AttachAll(n, reg)
	client := snmp.NewClient(&snmp.InProc{Registry: reg}, "public")
	bc := New(Config{
		Client: client,
		Sched:  s,
		Switches: []netip.Addr{
			d["core"].ManagementAddr(),
			d["eA"].ManagementAddr(),
			d["eB"].ManagementAddr(),
		},
	})
	if err := bc.Start(); err != nil {
		t.Fatal(err)
	}
	return s, n, bc, d
}

func macOf(d *netsim.Device) collector.MAC {
	return collector.MAC(d.Ifaces()[0].MAC)
}

func TestInfersSwitchLinks(t *testing.T) {
	_, _, bc, _ := lan(t)
	if got := bc.SwitchLinks(); got != 2 {
		t.Fatalf("inferred %d switch links, want 2 (eA-core, eB-core)", got)
	}
}

func TestStationsDiscovered(t *testing.T) {
	_, _, bc, d := lan(t)
	sts := bc.Stations()
	if len(sts) != 6 { // 5 hosts + router iface
		t.Fatalf("found %d stations, want 6", len(sts))
	}
	sw, port, ok := bc.Locate(macOf(d["h0"]))
	if !ok {
		t.Fatal("h0 not located")
	}
	if sw != d["eA"].ManagementAddr() {
		t.Fatalf("h0 located at %v, want eA", sw)
	}
	if port == 0 {
		t.Fatal("h0 port is 0")
	}
}

func TestPathSameSwitch(t *testing.T) {
	_, _, bc, d := lan(t)
	segs, err := bc.Path(macOf(d["h0"]), macOf(d["h1"]))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("same-switch path has %d segments, want 2", len(segs))
	}
	if segs[0].Capacity != 100e6 || segs[1].Capacity != 100e6 {
		t.Fatalf("segment capacities %v, %v", segs[0].Capacity, segs[1].Capacity)
	}
}

func TestPathAcrossCore(t *testing.T) {
	_, _, bc, d := lan(t)
	segs, err := bc.Path(macOf(d["h0"]), macOf(d["h4"]))
	if err != nil {
		t.Fatal(err)
	}
	// h0-eA, eA-core, core-eB, eB-h4
	if len(segs) != 4 {
		t.Fatalf("cross-core path has %d segments, want 4", len(segs))
	}
	if segs[1].Capacity != 1e9 || segs[2].Capacity != 1e9 {
		t.Fatalf("trunk capacities %v, %v, want 1e9", segs[1].Capacity, segs[2].Capacity)
	}
	if segs[0].FromID != StationID(macOf(d["h0"])) {
		t.Fatalf("path does not start at h0: %v", segs[0].FromID)
	}
	if segs[3].ToID != StationID(macOf(d["h4"])) {
		t.Fatalf("path does not end at h4: %v", segs[3].ToID)
	}
	// Poll points are always switch ports.
	for i, s := range segs {
		if !s.PollSwitch.IsValid() || s.PollPort == 0 {
			t.Fatalf("segment %d has no poll point: %+v", i, s)
		}
	}
}

func TestPathUnknownStation(t *testing.T) {
	_, _, bc, d := lan(t)
	if _, err := bc.Path(collector.MAC{1, 2, 3, 4, 5, 6}, macOf(d["h0"])); err == nil {
		t.Fatal("path from unknown MAC succeeded")
	}
}

func TestVerifyLocationCheap(t *testing.T) {
	_, _, bc, d := lan(t)
	meter := &snmp.Meter{}
	bc.cfg.Client.Meter = meter
	sw, _, err := bc.VerifyLocation(macOf(d["h0"]))
	if err != nil {
		t.Fatal(err)
	}
	if sw != d["eA"].ManagementAddr() {
		t.Fatalf("verified location %v, want eA", sw)
	}
	if n, _ := meter.Snapshot(); n != 1 {
		t.Fatalf("in-place verification used %d requests, want 1", n)
	}
}

func TestHostMoveDetected(t *testing.T) {
	_, n, bc, d := lan(t)
	var movedMAC collector.MAC
	bc.cfg.OnMove = func(mac collector.MAC, from, to netip.Addr) { movedMAC = mac }
	n.MoveHost(d["h0"], d["eB"], 100e6, time.Millisecond)
	sw, _, err := bc.VerifyLocation(macOf(d["h0"]))
	if err != nil {
		t.Fatal(err)
	}
	if sw != d["eB"].ManagementAddr() {
		t.Fatalf("after move, location %v, want eB", sw)
	}
	if movedMAC != macOf(d["h0"]) {
		t.Fatal("OnMove not fired for h0")
	}
	// Path service must use the new location.
	segs, err := bc.Path(macOf(d["h0"]), macOf(d["h1"]))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 4 {
		t.Fatalf("post-move path has %d segments, want 4 (now across core)", len(segs))
	}
}

func TestPeriodicMonitoringCatchesMove(t *testing.T) {
	s, n, bc, d := lan(t)
	moves := 0
	bc.cfg.OnMove = func(collector.MAC, netip.Addr, netip.Addr) { moves++ }
	bc.cfg.MonitorInterval = 10 * time.Second
	bc.monitor = s.Every(bc.cfg.MonitorInterval, bc.monitorOnce)
	defer bc.Stop()
	n.MoveHost(d["h3"], d["eA"], 100e6, time.Millisecond)
	s.RunFor(11 * time.Second)
	if moves != 1 {
		t.Fatalf("monitoring detected %d moves, want 1", moves)
	}
	sw, _, _ := bc.Locate(macOf(d["h3"]))
	if sw != d["eA"].ManagementAddr() {
		t.Fatalf("database still places h3 at %v", sw)
	}
}

func TestGraphShape(t *testing.T) {
	_, _, bc, _ := lan(t)
	g := bc.Graph()
	if len(g.Nodes()) != 9 { // 3 switches + 6 stations
		t.Fatalf("graph nodes = %d, want 9", len(g.Nodes()))
	}
	if len(g.Links()) != 8 { // 6 station links + 2 trunks
		t.Fatalf("graph links = %d, want 8", len(g.Links()))
	}
}

func TestCollectRequiresStart(t *testing.T) {
	bc := New(Config{})
	if _, err := bc.Collect(collector.Query{}); err == nil {
		t.Fatal("Collect before Start succeeded")
	}
}

func TestSingleSwitchLAN(t *testing.T) {
	s := sim.NewSim()
	n := netsim.New(s)
	sw := n.AddSwitch("sw")
	h1 := n.AddHost("h1")
	h2 := n.AddHost("h2")
	n.Connect(h1, sw, 100e6, 0)
	n.Connect(h2, sw, 100e6, 0)
	n.AssignSubnets()
	n.ComputeRoutes()
	reg := snmp.NewRegistry()
	mib.AttachAll(n, reg)
	bc := New(Config{
		Client:   snmp.NewClient(&snmp.InProc{Registry: reg}, "public"),
		Sched:    s,
		Switches: []netip.Addr{sw.ManagementAddr()},
	})
	if err := bc.Start(); err != nil {
		t.Fatal(err)
	}
	if bc.SwitchLinks() != 0 {
		t.Fatalf("single switch inferred %d links", bc.SwitchLinks())
	}
	segs, err := bc.Path(collector.MAC(h1.Ifaces()[0].MAC), collector.MAC(h2.Ifaces()[0].MAC))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("path segments = %d, want 2", len(segs))
	}
}

func TestDeepChainTopology(t *testing.T) {
	// A 5-switch chain with one host at each end and one on each
	// interior switch: inference must recover exactly the chain.
	s := sim.NewSim()
	n := netsim.New(s)
	var sws []*netsim.Device
	var addrs []netip.Addr
	for i := 0; i < 5; i++ {
		sw := n.AddSwitch("sw" + string(rune('0'+i)))
		sws = append(sws, sw)
		if i > 0 {
			n.Connect(sws[i-1], sw, 1e9, 0)
		}
	}
	var hosts []*netsim.Device
	for i := 0; i < 5; i++ {
		h := n.AddHost("h" + string(rune('0'+i)))
		hosts = append(hosts, h)
		n.Connect(h, sws[i], 100e6, 0)
	}
	n.AssignSubnets()
	n.ComputeRoutes()
	for _, sw := range sws {
		addrs = append(addrs, sw.ManagementAddr())
	}
	reg := snmp.NewRegistry()
	mib.AttachAll(n, reg)
	bc := New(Config{
		Client:   snmp.NewClient(&snmp.InProc{Registry: reg}, "public"),
		Sched:    s,
		Switches: addrs,
	})
	if err := bc.Start(); err != nil {
		t.Fatal(err)
	}
	if bc.SwitchLinks() != 4 {
		t.Fatalf("chain of 5 switches inferred %d links, want 4", bc.SwitchLinks())
	}
	segs, err := bc.Path(collector.MAC(hosts[0].Ifaces()[0].MAC), collector.MAC(hosts[4].Ifaces()[0].MAC))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 6 { // host-sw0, 4 trunks, sw4-host
		t.Fatalf("end-to-end path segments = %d, want 6", len(segs))
	}
}

func TestInteriorSwitchWithoutStations(t *testing.T) {
	// Chain sw0 - sw1 - sw2 where sw1 has NO attached stations. The
	// bridges' own management MACs disambiguate it.
	s := sim.NewSim()
	n := netsim.New(s)
	sw0 := n.AddSwitch("sw0")
	sw1 := n.AddSwitch("sw1")
	sw2 := n.AddSwitch("sw2")
	n.Connect(sw0, sw1, 1e9, 0)
	n.Connect(sw1, sw2, 1e9, 0)
	h0 := n.AddHost("h0")
	h2 := n.AddHost("h2")
	n.Connect(h0, sw0, 100e6, 0)
	n.Connect(h2, sw2, 100e6, 0)
	n.AssignSubnets()
	n.ComputeRoutes()
	reg := snmp.NewRegistry()
	mib.AttachAll(n, reg)
	bc := New(Config{
		Client:   snmp.NewClient(&snmp.InProc{Registry: reg}, "public"),
		Sched:    s,
		Switches: []netip.Addr{sw0.ManagementAddr(), sw1.ManagementAddr(), sw2.ManagementAddr()},
	})
	if err := bc.Start(); err != nil {
		t.Fatal(err)
	}
	if bc.SwitchLinks() != 2 {
		t.Fatalf("inferred %d links, want 2 (sw0-sw1, sw1-sw2; no sw0-sw2 shortcut)", bc.SwitchLinks())
	}
	segs, err := bc.Path(collector.MAC(h0.Ifaces()[0].MAC), collector.MAC(h2.Ifaces()[0].MAC))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 4 {
		t.Fatalf("path segments = %d, want 4", len(segs))
	}
}

// Several stations found off their ports cost one re-walk of the bridges,
// each move is reported, and a station on no bridge fails the search.
func TestSearchStationsRewalksOnce(t *testing.T) {
	_, n, bc, d := lan(t)
	moved := map[collector.MAC]netip.Addr{}
	bc.cfg.OnMove = func(mac collector.MAC, from, to netip.Addr) { moved[mac] = to }
	n.MoveHost(d["h0"], d["eB"], 100e6, time.Millisecond)
	n.MoveHost(d["h3"], d["eA"], 100e6, time.Millisecond)
	walks := bc.walkRequests
	// h1 has not moved: searched for, found where it was, not reported.
	if err := bc.SearchStations([]collector.MAC{macOf(d["h0"]), macOf(d["h3"]), macOf(d["h1"])}); err != nil {
		t.Fatal(err)
	}
	if got := bc.walkRequests - walks; got != 3 {
		t.Fatalf("search walked %d bridges, want each of the 3 once", got)
	}
	want := map[collector.MAC]netip.Addr{
		macOf(d["h0"]): d["eB"].ManagementAddr(),
		macOf(d["h3"]): d["eA"].ManagementAddr(),
	}
	if len(moved) != 2 || moved[macOf(d["h0"])] != want[macOf(d["h0"])] || moved[macOf(d["h3"])] != want[macOf(d["h3"])] {
		t.Fatalf("moves reported = %v, want %v", moved, want)
	}
	if err := bc.SearchStations([]collector.MAC{macOf(d["h1"]), {1, 2, 3, 4, 5, 6}}); err == nil {
		t.Fatal("search for a station on no bridge succeeded")
	}
}

// A path across the tree climbs from both ends to the switch the two
// parent chains share, whichever end is deeper or is the root itself.
func TestPathFollowsParentChains(t *testing.T) {
	_, _, bc, d := lan(t)
	ids := func(segs []Segment) []string {
		out := []string{segs[0].FromID}
		for _, s := range segs {
			out = append(out, s.ToID)
		}
		return out
	}
	core, eA, eB := d["core"].ManagementAddr().String(), d["eA"].ManagementAddr().String(), d["eB"].ManagementAddr().String()
	h0, h4 := StationID(macOf(d["h0"])), StationID(macOf(d["h4"]))
	for _, tc := range []struct {
		a, b string
		want []string
	}{
		{"h0", "h4", []string{h0, eA, core, eB, h4}},
		{"h4", "h0", []string{h4, eB, core, eA, h0}},
	} {
		segs, err := bc.Path(macOf(d[tc.a]), macOf(d[tc.b]))
		if err != nil {
			t.Fatal(err)
		}
		if got := ids(segs); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("path %s-%s = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		// Every switch-to-switch hop is polled at the port it leaves by.
		for _, s := range segs[1 : len(segs)-1] {
			if !s.PollIsFrom || s.PollSwitch.String() != s.FromID {
				t.Fatalf("hop %s-%s polled at %v (from end: %v)", s.FromID, s.ToID, s.PollSwitch, s.PollIsFrom)
			}
		}
	}
}

// Stations on bridges a router separates sit in different broadcast
// domains: no level-2 path joins them, and Path says so without a search.
func TestNoPathAcrossDomains(t *testing.T) {
	s := sim.NewSim()
	n := netsim.New(s)
	swA, swB, r := n.AddSwitch("swA"), n.AddSwitch("swB"), n.AddRouter("r")
	ha, hb := n.AddHost("ha"), n.AddHost("hb")
	n.Connect(ha, swA, 100e6, time.Millisecond)
	n.Connect(swA, r, 1e9, time.Millisecond)
	n.Connect(r, swB, 1e9, time.Millisecond)
	n.Connect(hb, swB, 100e6, time.Millisecond)
	n.AssignSubnets()
	n.ComputeRoutes()
	reg := snmp.NewRegistry()
	mib.AttachAll(n, reg)
	bc := New(Config{
		Client:   snmp.NewClient(&snmp.InProc{Registry: reg}, "public"),
		Sched:    s,
		Switches: []netip.Addr{swA.ManagementAddr(), swB.ManagementAddr()},
	})
	if err := bc.Start(); err != nil {
		t.Fatal(err)
	}
	da, okA := bc.Domain(macOf(ha))
	db, okB := bc.Domain(macOf(hb))
	if !okA || !okB || da == db {
		t.Fatalf("domains = %d (%v), %d (%v), want two different ones", da, okA, db, okB)
	}
	_, err := bc.Path(macOf(ha), macOf(hb))
	if err == nil || !strings.Contains(err.Error(), "no L2 path") {
		t.Fatalf("path across domains = %v, want a no-L2-path error", err)
	}
}

// The Bridge Collector's own answer is a function of its database: two
// Collect calls encode the same nodes and links in the same order.
func TestCollectEncodesStably(t *testing.T) {
	_, _, bc, _ := lan(t)
	var first []byte
	for i := 0; i < 20; i++ {
		res, err := bc.Collect(collector.Query{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Graph.EncodeText(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("Collect %d encodes\n%s\nthe first encoded\n%s", i, buf.Bytes(), first)
		}
	}
}

// checkPath fails unless segs is a well-formed level-2 path from station a
// to station b: consecutive segments meet, both ends are the stations,
// every segment is polled at a switch port and numbered inside gen.
func checkPath(t testing.TB, segs []Segment, gen Generation, a, b collector.MAC) {
	if len(segs) < 2 || segs[0].FromID != StationID(a) || segs[len(segs)-1].ToID != StationID(b) {
		t.Errorf("path %v-%v has ends %v", a, b, segs)
		return
	}
	for i, s := range segs {
		if i > 0 && segs[i-1].ToID != s.FromID {
			t.Errorf("path %v-%v breaks between segments %d and %d: %v", a, b, i-1, i, segs)
			return
		}
		if !s.PollSwitch.IsValid() || s.PollPort == 0 || s.Link < 0 || int(s.Link) >= gen.Links() {
			t.Errorf("path %v-%v segment %d: %+v (generation of %d links)", a, b, i, s, gen.Links())
			return
		}
	}
}

// Path queries are answered from the numbered tree while re-walks replace
// it: readers beside the writer see one whole generation or the next.
func TestPathsBesideRewalks(t *testing.T) {
	_, _, bc, d := lan(t)
	hosts := []collector.MAC{macOf(d["h0"]), macOf(d["h1"]), macOf(d["h2"]), macOf(d["h3"]), macOf(d["h4"]), macOf(d["r"])}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var segs []Segment
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a, b := hosts[i%len(hosts)], hosts[(i/len(hosts)+i+1)%len(hosts)]
				if a == b {
					continue
				}
				var gen Generation
				var err error
				if segs, gen, err = bc.AppendPath(segs[:0], a, b); err != nil {
					t.Errorf("path %v-%v: %v", a, b, err)
					return
				}
				checkPath(t, segs, gen, a, b)
				if _, _, ok := bc.Locate(a); !ok {
					t.Errorf("%v not located", a)
				}
				if dom, ok := bc.Domain(a); !ok || dom == 0 {
					t.Errorf("%v in domain %d (%v)", a, dom, ok)
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		if err := bc.SearchStations(hosts[:1]); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
