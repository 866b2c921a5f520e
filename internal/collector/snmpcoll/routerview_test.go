package snmpcoll_test

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"

	"remos/internal/collector"
	"remos/internal/collector/snmpcoll"
	"remos/internal/mib"
	"remos/internal/netsim"
	"remos/internal/sim"
	"remos/internal/snmp"
)

// TestRouterViewsMatchTheEmulator is the ground-truth gate on what one
// cold walk learns of a router: on the 256-host campus and on random
// netsim fabrics, every router's view holds each interface the emulator
// gives it, with its speed and MAC and nothing else, every address of
// the router, and its routing table, route for route.
func TestRouterViewsMatchTheEmulator(t *testing.T) {
	t.Run("campus", func(t *testing.T) {
		camp := buildCampus(t, 256)
		checkRouterViews(t, "campus", campusTwin(t, camp, nil), camp.Net.Devices())
	})
	t.Run("random", func(t *testing.T) {
		draws, walked := 0, 0
		f := func(seed int64) bool {
			s := sim.NewSim()
			fab := netsim.RandomFabric(s, seed)
			reg := snmp.NewRegistry()
			mib.AttachAll(fab.Net, reg)
			c := snmpcoll.New(snmpcoll.Config{
				Transport: &snmp.InProc{Registry: reg},
				Community: "public",
				Sched:     s,
			})
			defer c.Stop()
			walked += checkRouterViews(t, fab.Shape, c, fab.Routers)
			draws++
			return !t.Failed()
		}
		if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCountScale: 1}); err != nil {
			t.Fatal(err)
		}
		t.Logf("%d fabrics, %d routers", draws, walked)
	})
}

// checkRouterViews walks every router among devs through c, holds each
// view to the emulated device and returns how many it walked.
func checkRouterViews(t *testing.T, shape string, c *snmpcoll.Collector, devs []*netsim.Device) (routers int) {
	t.Helper()
	for _, d := range devs {
		if !d.IsRouter() {
			continue
		}
		routers++
		v, err := c.WalkRouter(d.Addr())
		if err != nil {
			t.Fatalf("%s: walking %s: %v", shape, d.Name, err)
		}
		var indexes []int
		var ips []netip.Addr
		for _, ifc := range d.Ifaces() {
			indexes = append(indexes, ifc.Index)
			// The agent serves ifSpeed as a Gauge32.
			if got, want := v.Speed(ifc.Index), float64(uint32(min(ifc.Speed(), 1<<32-1))); got != want {
				t.Errorf("%s: %s if %d: speed %v, the emulator's %v", shape, d.Name, ifc.Index, got, want)
			}
			if mac, ok := v.MAC(ifc.Index); !ok || mac != collector.MAC(ifc.MAC) {
				t.Errorf("%s: %s if %d: MAC %v (%t), the emulator's %v", shape, d.Name, ifc.Index, mac, ok, ifc.MAC)
			}
			if ifc.IP.IsValid() {
				ips = append(ips, ifc.IP)
				if !slices.Contains(v.Addrs, ifc.IP) {
					t.Errorf("%s: %s: the view's addresses %v lack %v", shape, d.Name, v.Addrs, ifc.IP)
				}
			}
		}
		slices.Sort(indexes)
		if got := v.Ifaces(); !slices.Equal(got, indexes) {
			t.Errorf("%s: %s: the view holds interfaces %v, the emulator %v", shape, d.Name, got, indexes)
		}
		if len(v.Addrs) != len(ips) {
			t.Errorf("%s: %s: the view holds addresses %v, the emulator %v", shape, d.Name, v.Addrs, ips)
		}
		for _, rt := range d.Routes() {
			want := snmpcoll.RouteView{Prefix: rt.Prefix.Masked(), NextHop: rt.NextHop, IfIndex: rt.IfIndex}
			if !slices.Contains(v.Routes, want) {
				t.Errorf("%s: %s: the view's routes %v lack %v", shape, d.Name, v.Routes, want)
			}
		}
		if len(v.Routes) != len(d.Routes()) {
			t.Errorf("%s: %s: the view holds %d routes, the emulator %d", shape, d.Name, len(v.Routes), len(d.Routes()))
		}
		if t.Failed() {
			return routers
		}
	}
	if routers == 0 {
		t.Fatalf("%s: no router to walk", shape)
	}
	return routers
}

// TestFirstContactViewIsOneAllocation: the view a first contact with a
// campus gateway makes is one allocation, its tables inside it, and the
// router's sysName one more; everything else the fetch allocates is its
// walk's.
func TestFirstContactViewIsOneAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	camp := buildCampus(t, 256)
	c := campusTwin(t, camp, nil)
	walk, fetch := c.FirstContactAllocs(camp.Hosts[0].Gateway)
	if fetch-walk != 2 {
		t.Fatalf("a first contact allocates %v times, its walk %v: %v for the view and its sysName, want 2",
			fetch, walk, fetch-walk)
	}
}
