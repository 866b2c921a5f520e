package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"remos/internal/sim"
)

// Fabric is one drawn random internetwork, finished: subnets assigned
// and routes computed.
type Fabric struct {
	Net *Network
	// Hosts and Routers list the devices in creation order.
	Hosts   []*Device
	Routers []*Device
	// Shape is a one-line summary of what the seed drew, for failure
	// messages.
	Shape string
}

// coreRates are the capacities a routed core link draws from, a DS3 up
// to a 1.4 Gb/s trunk; accessRates are a host link's.
var (
	coreRates   = []float64{45e6, 155e6, 622e6, 1e9, 1.4e9}
	accessRates = []float64{100e6, 1e9}
)

// RandomFabric draws one random internetwork on sched. The seed alone
// picks the shape, and two draws of one seed are identical, device
// names included. The shape space, family by family:
//
//   - Router core: 2–7 routers joined by a random spanning tree plus
//     chords, so equal-hop alternatives exist, each core link drawn from
//     45 Mb/s–1.4 Gb/s at 1–3 ms.
//   - Transit routers: a mesh router other than the first carries no
//     hosts one time in four.
//   - Campus core: one core in four instead joins its routers through
//     one shared core switch (1 Gb/s, 1 ms), a campus backbone segment.
//   - Bridged clouds: behind every router but a transit one, a tree of
//     1–3 switches (1 Gb/s, 1 ms) with 1–4 hosts on any of them, over
//     access links of 100 Mb/s or 1 Gb/s. A component's first cloud
//     holds at least two hosts, so every component has a routable pair.
//   - Islands: one draw in four adds a second component of 1–2 routers
//     that the first cannot reach.
//
// Every device pair is joined by at most one link. Parallel links are
// left out because topology.Graph keeps one link per node pair (Merge
// folds the second into the first, and FindLink answers only the first),
// so a stitched or collected graph of such a fabric would lose a link the
// emulator carries traffic on.
func RandomFabric(sched sim.Scheduler, seed int64) *Fabric {
	rng := rand.New(rand.NewSource(seed))
	f := &Fabric{Net: New(sched)}
	f.Shape = fmt.Sprintf("fabric %d: %s", seed, f.component(rng, 2+rng.Intn(6)))
	if rng.Intn(4) == 0 {
		f.Shape += "; island of " + f.component(rng, 1+rng.Intn(2))
	}
	f.Net.AssignSubnets()
	f.Net.ComputeRoutes()
	return f
}

// component adds one connected piece of nr routers and the clouds
// behind them, and summarises it.
func (f *Fabric) component(rng *rand.Rand, nr int) string {
	n := f.Net
	routers := make([]*Device, nr)
	for i := range routers {
		routers[i] = n.AddRouter(fmt.Sprintf("r%d", len(f.Routers)+i))
	}
	f.Routers = append(f.Routers, routers...)
	if nr > 1 && rng.Intn(4) == 0 {
		core := n.AddSwitch(routers[0].Name + "core")
		for i, r := range routers {
			n.Connect(r, core, 1e9, time.Millisecond)
			f.cloud(rng, r, i == 0)
		}
		return fmt.Sprintf("%d routers on a core switch", nr)
	}
	wired := map[[2]int]bool{}
	link := func(a, b int) bool {
		key := [2]int{min(a, b), max(a, b)}
		if a == b || wired[key] {
			return false
		}
		wired[key] = true
		n.Connect(routers[a], routers[b], coreRates[rng.Intn(len(coreRates))], time.Duration(1+rng.Intn(3))*time.Millisecond)
		return true
	}
	for i := 1; i < nr; i++ {
		link(i, rng.Intn(i))
	}
	chords, transit := 0, 0
	for k := rng.Intn(nr); k > 0; k-- {
		if link(rng.Intn(nr), rng.Intn(nr)) {
			chords++
		}
	}
	for i, r := range routers {
		if i > 0 && rng.Intn(4) == 0 {
			transit++
		} else {
			f.cloud(rng, r, i == 0)
		}
	}
	return fmt.Sprintf("%d-router mesh, %d chords, %d transit", nr, chords, transit)
}

// cloud hangs a bridged LAN behind r: a random tree of 1–3 switches,
// the first uplinked to r, and hosts on any of them.
func (f *Fabric) cloud(rng *rand.Rand, r *Device, first bool) {
	n := f.Net
	sws := []*Device{n.AddSwitch(r.Name + "s0")}
	n.Connect(sws[0], r, 1e9, time.Millisecond)
	for k := rng.Intn(3); k > 0; k-- {
		sw := n.AddSwitch(fmt.Sprintf("%ss%d", r.Name, len(sws)))
		n.Connect(sw, sws[rng.Intn(len(sws))], 1e9, time.Millisecond)
		sws = append(sws, sw)
	}
	nh := 1 + rng.Intn(4)
	if first {
		nh = 2 + rng.Intn(3)
	}
	for k := 0; k < nh; k++ {
		h := n.AddHost(fmt.Sprintf("%sh%d", r.Name, k))
		n.Connect(h, sws[rng.Intn(len(sws))], accessRates[rng.Intn(len(accessRates))], time.Millisecond)
		f.Hosts = append(f.Hosts, h)
	}
}
