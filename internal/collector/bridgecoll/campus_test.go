package bridgecoll_test

import (
	"fmt"
	"slices"
	"testing"

	"remos/internal/collector"
	"remos/internal/collector/bridgecoll"
	"remos/internal/experiments"
	"remos/internal/netsim"
)

// The campus tests hold the numbered bridge tree to the emulator, which
// knows the true level-2 paths, on the 256-host campus of Fig. 3
// (experiments.BuildCampus, which this package's internal tests cannot
// import).

func buildCampus(tb testing.TB) *experiments.Campus {
	tb.Helper()
	camp, err := experiments.BuildCampus(256)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(camp.Dep.Stop)
	return camp
}

// wings returns the campus hosts grouped by wing: the broadcast domain
// behind one gateway router.
func wings(camp *experiments.Campus) map[int][]*netsim.Device {
	out := map[int][]*netsim.Device{}
	for _, h := range camp.Hosts {
		var w, idx int
		fmt.Sscanf(h.Name, "h%d-%d", &w, &idx)
		out[w] = append(out[w], h)
	}
	return out
}

// stationOf returns the MAC the bridges learn for a device on a segment:
// a host's one interface, or the router's interface holding addr.
func stationOf(camp *experiments.Campus, d *netsim.Device, addr string) collector.MAC {
	if d.IsRouter() {
		for _, ifc := range d.Ifaces() {
			if ifc.IP.String() == addr {
				return collector.MAC(ifc.MAC)
			}
		}
	}
	return collector.MAC(d.Ifaces()[0].MAC)
}

// Every level-2 path the Bridge Collector answers inside a wing — host to
// host, and host to its gateway's interface — visits the switches the
// emulator forwards through, and the segments' Link numbers name links:
// two segments carry the same number exactly when they join the same two
// nodes. A re-walk of the bridges starts a new generation.
func TestCampusPathsMatchTheEmulator(t *testing.T) {
	camp := buildCampus(t)
	bc := camp.Site.Bridge
	nodeID := func(d *netsim.Device, m collector.MAC) string {
		if d.Kind == netsim.Switch {
			return d.ManagementAddr().String()
		}
		return bridgecoll.StationID(m)
	}
	type pair [2]string
	linkOf := map[pair]int32{}
	pairOf := map[int32]pair{}
	var gen0 bridgecoll.Generation
	var segs []bridgecoll.Segment
	check := func(src, dst *netsim.Device, ms, md collector.MAC) {
		t.Helper()
		var gen bridgecoll.Generation
		var err error
		segs, gen, err = bc.AppendPath(segs[:0], ms, md)
		if err != nil {
			t.Fatalf("path %s-%s: %v", src.Name, dst.Name, err)
		}
		if gen0 == (bridgecoll.Generation{}) {
			gen0 = gen
		} else if gen != gen0 {
			t.Fatalf("generation changed without a re-walk")
		}
		devs, err := camp.Net.Path(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, len(devs))
		for i, d := range devs {
			switch i {
			case 0:
				want[i] = nodeID(d, ms)
			case len(devs) - 1:
				want[i] = nodeID(d, md)
			default:
				want[i] = nodeID(d, collector.MAC{})
			}
		}
		got := []string{segs[0].FromID}
		for _, s := range segs {
			got = append(got, s.ToID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("path %s-%s visits %v, the emulator forwards through %v", src.Name, dst.Name, got, want)
		}
		for _, s := range segs {
			p := pair{s.FromID, s.ToID}
			if p[0] > p[1] {
				p[0], p[1] = p[1], p[0]
			}
			if n, ok := linkOf[p]; ok && n != s.Link {
				t.Fatalf("%s-%s numbered %d and %d", p[0], p[1], n, s.Link)
			}
			if q, ok := pairOf[s.Link]; ok && q != p {
				t.Fatalf("link %d joins %v and %v", s.Link, q, p)
			}
			linkOf[p], pairOf[s.Link] = s.Link, p
		}
	}
	paths := 0
	for _, hosts := range wings(camp) {
		for _, src := range hosts {
			for _, dst := range hosts {
				if src != dst {
					check(src, dst, stationOf(camp, src, ""), stationOf(camp, dst, ""))
					paths++
				}
			}
			gw := camp.Net.DeviceByIP(src.Gateway)
			check(src, gw, stationOf(camp, src, ""), stationOf(camp, gw, src.Gateway.String()))
			paths++
		}
	}
	if paths != 4*64*63+256 {
		t.Fatalf("checked %d paths, want every in-wing pair and every host's gateway", paths)
	}
	t.Logf("%d paths, %d distinct links", paths, len(linkOf))

	h := camp.Hosts[0]
	if err := bc.SearchStations([]collector.MAC{stationOf(camp, h, "")}); err != nil {
		t.Fatal(err)
	}
	if _, gen, err := bc.AppendPath(nil, stationOf(camp, h, ""), stationOf(camp, camp.Hosts[4], "")); err != nil || gen == gen0 {
		t.Fatalf("after a re-walk: generation %v (was %v), err %v", gen, gen0, err)
	}
}

// BenchmarkCampusL2Paths asks the Bridge Collector for the level-2 path of
// every in-wing host pair of the 256-host campus (4 × 2016 paths an
// operation) into one reused slice: the walk the SNMP Collector's connect
// phase makes for each bridged segment of a cold query.
func BenchmarkCampusL2Paths(b *testing.B) {
	camp := buildCampus(b)
	bc := camp.Site.Bridge
	var pairs [][2]collector.MAC
	for _, hosts := range wings(camp) {
		for i, src := range hosts {
			for _, dst := range hosts[i+1:] {
				pairs = append(pairs, [2]collector.MAC{stationOf(camp, src, ""), stationOf(camp, dst, "")})
			}
		}
	}
	var segs []bridgecoll.Segment
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			var err error
			if segs, _, err = bc.AppendPath(segs[:0], p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
