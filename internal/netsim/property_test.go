package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"remos/internal/sim"
)

// routable reports whether err, the emulator's answer to routing a to b,
// agrees with the fabric's components: nil within one, an error across
// two.
func routable(t *testing.T, fab *Fabric, a, b *Device, err error) bool {
	comps := components(fab.Net)
	if apart := comps.root(a) != comps.root(b); apart != (err != nil) {
		t.Logf("%s: %s->%s in different components %v, routing error %v", fab.Shape, a.Name, b.Name, apart, err)
		return false
	}
	return true
}

// Property: every host pair in one component routes loop-free, and the
// path visits only hosts at the endpoints; a pair in two components has
// no path.
func TestPropertyRoutingLoopFree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fab := RandomFabric(sim.NewSim(), seed)
		n, hosts := fab.Net, fab.Hosts
		for trial := 0; trial < 6; trial++ {
			a := hosts[rng.Intn(len(hosts))]
			b := hosts[rng.Intn(len(hosts))]
			if a == b {
				continue
			}
			path, err := n.Path(a, b)
			if !routable(t, fab, a, b, err) {
				return false
			}
			if err != nil {
				continue
			}
			seen := map[*Device]bool{}
			for i, d := range path {
				if seen[d] {
					t.Logf("loop through %s", d.Name)
					return false
				}
				seen[d] = true
				if d.Kind == Host && i != 0 && i != len(path)-1 {
					t.Logf("path transits host %s", d.Name)
					return false
				}
			}
			if path[0] != a || path[len(path)-1] != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, fabricChecks(0.6)); err != nil {
		t.Fatal(err)
	}
}

// Property: flow conservation — whatever a host sends arrives: the
// receiver's in-octets delta equals the sender's transferred bytes, and
// every interface on the path saw the same amount.
func TestPropertyFlowConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0xf10))
		fab := RandomFabric(sim.NewSim(), seed)
		n, hosts := fab.Net, fab.Hosts
		a := hosts[rng.Intn(len(hosts))]
		b := hosts[rng.Intn(len(hosts))]
		if a == b {
			return true
		}
		s := n.Scheduler().(*sim.Sim)
		demand := float64(1+rng.Intn(50)) * 1e6
		fl, err := n.StartFlow(a, b, FlowSpec{Demand: demand})
		if err != nil {
			return routable(t, fab, a, b, err)
		}
		dur := time.Duration(1+rng.Intn(20)) * time.Second
		s.RunFor(dur)
		sent := fl.Sent()
		in, _ := b.Ifaces()[0].Counters()
		if math.Abs(float64(in)-sent) > 2 {
			t.Logf("receiver saw %d, sender sent %v", in, sent)
			return false
		}
		_, out := a.Ifaces()[0].Counters()
		if math.Abs(float64(out)-sent) > 2 {
			t.Logf("sender iface out %d vs sent %v", out, sent)
			return false
		}
		// The flow never exceeded its demand.
		maxBytes := demand / 8 * dur.Seconds()
		if sent > maxBytes+2 {
			t.Logf("sent %v exceeds demand ceiling %v", sent, maxBytes)
			return false
		}
		return true
	}
	if err := quick.Check(f, fabricChecks(0.6)); err != nil {
		t.Fatal(err)
	}
}

// Property: concurrent random flows never over-subscribe any link.
func TestPropertyNoLinkOversubscription(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0xcafe))
		fab := RandomFabric(sim.NewSim(), seed)
		n, hosts := fab.Net, fab.Hosts
		for k := 0; k < 6; k++ {
			a := hosts[rng.Intn(len(hosts))]
			b := hosts[rng.Intn(len(hosts))]
			if a == b {
				continue
			}
			var demand float64
			if rng.Intn(2) == 0 {
				demand = float64(1+rng.Intn(200)) * 1e6
			}
			if _, err := n.StartFlow(a, b, FlowSpec{Demand: demand}); !routable(t, fab, a, b, err) {
				return false
			}
		}
		for _, l := range n.Links() {
			fwd, rev := n.LinkRate(l)
			if fwd > l.Capacity*(1+1e-9) || rev > l.Capacity*(1+1e-9) {
				t.Logf("link %d oversubscribed: %v/%v of %v", l.ID, fwd, rev, l.Capacity)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, fabricChecks(0.6)); err != nil {
		t.Fatal(err)
	}
}
