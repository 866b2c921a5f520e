package netsim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"remos/internal/sim"
)

// fabricChecks is the quick configuration a fabric property draws its
// seeds through: the fixed Rand keeps every run on one seed list, and
// the standard -quickchecks flag scales its length (scale × 100 by
// default), which is how `make property-soak` draws thousands.
func fabricChecks(scale float64) *quick.Config {
	return &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCountScale: scale}
}

// unionFind joins devices into sets, each named by its root.
type unionFind map[*Device]*Device

func (u unionFind) root(d *Device) *Device {
	for p, ok := u[d]; ok; p, ok = u[d] {
		d = p
	}
	return d
}

// join merges the sets of a and b and reports whether they were apart.
func (u unionFind) join(a, b *Device) bool {
	ra, rb := u.root(a), u.root(b)
	if ra != rb {
		u[ra] = rb
	}
	return ra != rb
}

// components sorts the devices into connected components, read off
// n.Links() alone: on a drawn fabric, two hosts have a route exactly
// when they share a root.
func components(n *Network) unionFind {
	u := unionFind{}
	for _, l := range n.Links() {
		u.join(l.A.Dev, l.B.Dev)
	}
	return u
}

// fabricFamilies are the shape families RandomFabric's doc comment
// states, as families reads them off a network.
var fabricFamilies = []string{
	"equal-hop chord", "mixed core rates", "transit router", "campus core switch",
	"switch tree", "100 Mb/s access", "1000 Mb/s access", "island",
}

// families names the shape families a network holds, read off its links
// and each device's peers.
func families(n *Network) map[string]bool {
	fam := map[string]bool{}
	mark := func(name string, holds bool) {
		if holds {
			fam[name] = true
		}
	}
	core, rates := unionFind{}, map[float64]bool{}
	for _, l := range n.Links() {
		a, b := l.A.Dev, l.B.Dev
		if a.Kind == Router && b.Kind == Router {
			rates[l.Capacity] = true
			mark("equal-hop chord", !core.join(a, b))
		}
		mark("switch tree", a.Kind == Switch && b.Kind == Switch)
		mark(fmt.Sprintf("%g Mb/s access", l.Capacity/1e6), a.Kind == Host || b.Kind == Host)
	}
	mark("mixed core rates", len(rates) > 1)
	comps, devs := components(n), n.Devices()
	for _, d := range devs {
		var peers [3]int // by DeviceKind
		for _, ifc := range d.Ifaces() {
			peers[ifc.Peer().Dev.Kind]++
		}
		mark("transit router", d.Kind == Router && peers[Switch] == 0 && peers[Router] >= 2)
		mark("campus core switch", d.Kind == Switch && peers[Router] >= 2)
		mark("island", comps.root(d) != comps.root(devs[0]))
	}
	return fam
}

// TestRandomFabricDrawsEveryFamily: over the seeds the fabric
// properties draw, every family RandomFabric's doc comment states is
// drawn at least once.
func TestRandomFabricDrawsEveryFamily(t *testing.T) {
	drawn := map[string]int{}
	f := func(seed int64) bool {
		for fam := range families(RandomFabric(sim.NewSim(), seed).Net) {
			drawn[fam]++
		}
		return true
	}
	if err := quick.Check(f, fabricChecks(0.6)); err != nil {
		t.Fatal(err)
	}
	for _, fam := range fabricFamilies {
		if drawn[fam] == 0 {
			t.Errorf("no fabric drew the %s family", fam)
		}
	}
	t.Logf("fabrics per family: %v", drawn)
}

// fabricText renders a drawn fabric for comparison: its topology's text
// encoding, addresses included, then its device names in creation
// order.
func fabricText(t *testing.T, f *Fabric) string {
	t.Helper()
	var b strings.Builder
	g, err := TopologyGraph(f.Net)
	if err == nil {
		err = g.EncodeText(&b)
	}
	if err != nil {
		t.Fatalf("%s: %v", f.Shape, err)
	}
	for _, d := range f.Net.Devices() {
		b.WriteString(d.Name + " ")
	}
	return b.String()
}
