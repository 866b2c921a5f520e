package remos_test

import (
	"net/netip"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/collector/bridgecoll"
	"remos/internal/collector/snmpcoll"
	"remos/internal/mib"
	"remos/internal/netsim"
	"remos/internal/sim"
	"remos/internal/snmp"
)

// snmpcollCollector names the concrete collector the rate/ablation
// benchmarks exercise.
type snmpcollCollector = snmpcoll.Collector

// newBenchSite wires the standard two-router, two-LAN testbed with a
// bridge collector and an SNMP collector.
func newBenchSite(b *testing.B) *benchSite {
	b.Helper()
	s := sim.NewSim()
	n := netsim.New(s)
	h1 := n.AddHost("h1")
	h2 := n.AddHost("h2")
	swA := n.AddSwitch("swA")
	swB := n.AddSwitch("swB")
	r1 := n.AddRouter("r1")
	r2 := n.AddRouter("r2")
	n.Connect(h1, swA, 100e6, time.Millisecond)
	n.Connect(swA, r1, 1e9, time.Millisecond)
	n.Connect(r1, r2, 10e6, 10*time.Millisecond)
	n.Connect(r2, swB, 1e9, time.Millisecond)
	n.Connect(h2, swB, 100e6, time.Millisecond)
	n.AssignSubnets()
	n.ComputeRoutes()
	reg := snmp.NewRegistry()
	mib.AttachAll(n, reg)
	tr := &snmp.InProc{Registry: reg}
	bc := bridgecoll.New(bridgecoll.Config{
		Client:   snmp.NewClient(tr, "public"),
		Sched:    s,
		Switches: []netip.Addr{swA.ManagementAddr(), swB.ManagementAddr()},
	})
	if err := bc.Start(); err != nil {
		b.Fatal(err)
	}
	sc := snmpcoll.New(snmpcoll.Config{
		Transport:     tr,
		Community:     "public",
		StreamPredict: "AR(16)",
		Sched:         s,
		GatewayOf: func(h netip.Addr) (netip.Addr, bool) {
			dev := n.DeviceByIP(h)
			if dev == nil || !dev.Gateway.IsValid() {
				return netip.Addr{}, false
			}
			return dev.Gateway, true
		},
		ResolveMAC: func(ip netip.Addr) (collector.MAC, bool) {
			ifc := n.IfaceByIP(ip)
			if ifc == nil {
				return collector.MAC{}, false
			}
			return collector.MAC(ifc.MAC), true
		},
		Bridge: bc,
	})
	b.Cleanup(sc.Stop)
	b.Cleanup(bc.Stop)
	return &benchSite{s: s, n: n, sc: sc, hosts: []netip.Addr{h1.Addr(), h2.Addr()}}
}
