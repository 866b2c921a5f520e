package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"time"

	"remos/internal/core"
	"remos/internal/modeler"
	"remos/internal/netsim"
	"remos/internal/sim"
)

// MirrorSite describes one replica server in the mirrored-server
// experiment: the site name and the mean capacity and variability of its
// path to the client.
type MirrorSite struct {
	Name string
	// Bottleneck is the site's access capacity in bits per second.
	Bottleneck float64
	// CrossMean and CrossJitter shape the stochastic background load on
	// the bottleneck (mean bits/s; jitter as a fraction of the mean).
	CrossMean   float64
	CrossJitter float64
	// BurstFlows bounds how many greedy flows a congestion episode
	// brings (zero values default to 2..4). Heavily shared links see
	// deeper episodes.
	BurstFlowsMin, BurstFlowsMax int
}

// Fig8Sites are the well-connected replicas of Figure 8 (Harvard, ISI,
// NWU, ETH as seen from CMU; paper-average throughputs 2.03, 2.15, 4.11,
// 1.99 Mbit/s).
var Fig8Sites = []MirrorSite{
	{Name: "harvard", Bottleneck: 3.4e6, CrossMean: 1.3e6, CrossJitter: 0.9},
	{Name: "isi", Bottleneck: 3.6e6, CrossMean: 1.4e6, CrossJitter: 0.9},
	{Name: "nwu", Bottleneck: 6.0e6, CrossMean: 1.9e6, CrossJitter: 0.9},
	{Name: "eth", Bottleneck: 3.3e6, CrossMean: 1.3e6, CrossJitter: 0.9},
}

// Fig9Sites are the poorly-connected replicas of Figure 9 (Coimbra,
// Valladolid, a DSL-attached host; paper-average throughputs 0.25, 1.02,
// 0.08 Mbit/s).
var Fig9Sites = []MirrorSite{
	{Name: "coimbra", Bottleneck: 0.48e6, CrossMean: 0.17e6, CrossJitter: 1.0},
	{Name: "valladolid", Bottleneck: 1.7e6, CrossMean: 0.6e6, CrossJitter: 1.0,
		BurstFlowsMin: 5, BurstFlowsMax: 9},
	{Name: "dsl", Bottleneck: 0.10e6, CrossMean: 0.02e6, CrossJitter: 0.9},
}

// MirrorTrial is one replica-selection trial.
type MirrorTrial struct {
	// PickedCorrectly reports whether Remos's first choice achieved the
	// highest download throughput.
	PickedCorrectly bool
	// ByRank holds achieved download throughput (bits/s) indexed by
	// Remos's ranking (0 = Remos's first choice).
	ByRank []float64
	// Effective is the first choice's throughput including the time it
	// took to get an answer back from Remos.
	Effective float64
}

// MirrorResult aggregates a full experiment.
type MirrorResult struct {
	Sites    []MirrorSite
	Trials   []MirrorTrial
	Correct  int
	FileSize float64
}

// FractionCorrect is the headline number (the paper reports 83% for the
// well-connected sites and 82% for the poorly-connected ones).
func (r *MirrorResult) FractionCorrect() float64 {
	if len(r.Trials) == 0 {
		return 0
	}
	return float64(r.Correct) / float64(len(r.Trials))
}

// AvgByRank returns the average download throughput by Remos rank,
// filtered to correct or incorrect picks.
func (r *MirrorResult) AvgByRank(correct bool) []float64 {
	if len(r.Sites) == 0 {
		return nil
	}
	sums := make([]float64, len(r.Sites))
	n := 0
	for _, t := range r.Trials {
		if t.PickedCorrectly != correct {
			continue
		}
		n++
		for i, v := range t.ByRank {
			sums[i] += v
		}
	}
	if n == 0 {
		return sums
	}
	for i := range sums {
		sums[i] /= float64(n)
	}
	return sums
}

// AvgEffective averages the effective first-choice bandwidth over trials
// with the given correctness.
func (r *MirrorResult) AvgEffective(correct bool) float64 {
	var sum float64
	n := 0
	for _, t := range r.Trials {
		if t.PickedCorrectly != correct {
			continue
		}
		sum += t.Effective
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Mirror runs the mirrored-server experiment of Section 5.4: trials
// iterations of (query Remos for the best replica, then download the file
// from every replica in ranked order and compare). fileBytes is the
// paper's 3 MB unless overridden.
func Mirror(sites []MirrorSite, trials int, fileBytes float64, seed int64) (*MirrorResult, error) {
	if fileBytes <= 0 {
		fileBytes = 3e6
	}
	s := sim.NewSim()
	n := netsim.New(s)

	client := n.AddHost("client")
	benchC := n.AddHost("bench-cmu")
	rc := n.AddRouter("r-cmu")
	wan := n.AddRouter("r-wan")
	n.Connect(client, rc, 100e6, time.Millisecond)
	n.Connect(benchC, rc, 100e6, time.Millisecond)
	n.Connect(rc, wan, 100e6, 15*time.Millisecond)

	type siteDevs struct {
		server *netsim.Device
		noise  *netsim.Device
	}
	noiseHub := n.AddHost("noise-hub")
	n.Connect(noiseHub, wan, 1e9, time.Millisecond)
	devs := make([]siteDevs, len(sites))
	for i, site := range sites {
		srv := n.AddHost("srv-" + site.Name)
		noise := n.AddHost("noise-" + site.Name)
		r := n.AddRouter("r-" + site.Name)
		n.Connect(srv, r, 100e6, time.Millisecond)
		n.Connect(noise, r, 100e6, time.Millisecond)
		n.Connect(r, wan, site.Bottleneck, 30*time.Millisecond)
		devs[i] = siteDevs{server: srv, noise: noise}
	}
	n.AssignSubnets()
	n.ComputeRoutes()

	// Background cross traffic on each bottleneck, both directions.
	rng := rand.New(rand.NewSource(seed))
	for i, site := range sites {
		if site.CrossMean <= 0 {
			continue
		}
		if _, err := n.StartCrossTraffic(devs[i].noise, noiseHub, netsim.CrossTrafficSpec{
			Mean: site.CrossMean, Jitter: site.CrossJitter,
			Period: time.Second, Seed: rng.Int63(),
		}); err != nil {
			return nil, err
		}
		if _, err := n.StartCrossTraffic(noiseHub, devs[i].noise, netsim.CrossTrafficSpec{
			Mean: site.CrossMean, Jitter: site.CrossJitter,
			Period: time.Second, Seed: rng.Int63(),
		}); err != nil {
			return nil, err
		}
	}

	// Transient congestion episodes: every minute or two each site's
	// bottleneck suffers a burst of near-saturating traffic for a few
	// seconds. Bursts that land between the Remos measurement and the
	// download are what make picks go wrong — the paper saw the fastest
	// site lose 17-18% of the time.
	for i := range sites {
		i := i
		site := sites[i]
		burstSeed := rand.New(rand.NewSource(rng.Int63()))
		var schedule func()
		schedule = func() {
			gap := time.Duration((30 + burstSeed.ExpFloat64()*60) * float64(time.Second))
			s.After(gap, func() {
				// A congestion episode behaves like several greedy
				// flows arriving at once; a single flow could never
				// push a max-min fair download below half capacity.
				lo, hi := site.BurstFlowsMin, site.BurstFlowsMax
				if lo <= 0 {
					lo = 2
				}
				if hi < lo {
					hi = lo + 2
				}
				nFlows := lo + burstSeed.Intn(hi-lo+1)
				var flows []*netsim.Flow
				for k := 0; k < nFlows; k++ {
					if f, err := n.StartFlow(devs[i].noise, noiseHub, netsim.FlowSpec{
						Demand: 0.9 * site.Bottleneck,
					}); err == nil {
						flows = append(flows, f)
					}
				}
				dur := time.Duration((6 + burstSeed.Float64()*20) * float64(time.Second))
				s.After(dur, func() {
					for _, f := range flows {
						f.Stop()
					}
					schedule()
				})
			})
		}
		schedule()
	}

	// Remos deployment: client site plus one site per replica; probes
	// measure the download (server->client) direction. Periodic probing
	// is effectively disabled; each trial measures on demand.
	dep := core.NewDeployment(s, n, core.Options{})
	quiet := 365 * 24 * time.Hour
	if _, err := dep.AddSite(core.SiteSpec{
		Name: "cmu", BenchHost: benchC, BenchReverse: true,
		BenchInterval: quiet, BenchDuration: 3 * time.Second,
		Prefixes: hostPrefixes(client, benchC),
	}); err != nil {
		return nil, err
	}
	for i, site := range sites {
		if _, err := dep.AddSite(core.SiteSpec{
			Name: site.Name, BenchHost: devs[i].server,
			BenchInterval: quiet,
			Prefixes:      hostPrefixes(devs[i].server),
		}); err != nil {
			return nil, err
		}
	}
	if err := dep.Finish(); err != nil {
		return nil, err
	}
	defer dep.Stop()

	cmu := dep.Sites["cmu"]
	m := modeler.New(modeler.Config{Collector: cmu.Master})
	servers := make([]netip.Addr, len(sites))
	serverOf := make(map[netip.Addr]int, len(sites))
	for i := range sites {
		servers[i] = devs[i].server.Addr()
		serverOf[servers[i]] = i
	}

	res := &MirrorResult{Sites: sites, FileSize: fileBytes}
	const probeWindow = 3 * time.Second
	for trial := 0; trial < trials; trial++ {
		// Let the background evolve between trials.
		s.RunFor(time.Duration(20+rng.Intn(40)) * time.Second)

		// The Remos query: measure all candidates (this is the time
		// "it took to get an answer back from the Remos system"), then
		// rank.
		queryStart := s.Now()
		if err := cmu.Bench.MeasureAllParallel(probeWindow); err != nil {
			return nil, err
		}
		ranks, err := m.BestServerContext(context.Background(), client.Addr(), servers, modeler.FlowOptions{})
		if err != nil {
			return nil, err
		}
		queryTime := s.Now().Sub(queryStart)

		// Download from every replica in ranked order.
		tr := MirrorTrial{ByRank: make([]float64, len(ranks))}
		best := 0.0
		bestIdx := -1
		var firstElapsed time.Duration
		for pos, rk := range ranks {
			srv := devs[serverOf[rk.Server]].server
			tput, elapsed, err := n.Transfer(srv, client, fileBytes, 0)
			if err != nil {
				return nil, err
			}
			tr.ByRank[pos] = tput
			if pos == 0 {
				firstElapsed = elapsed
			}
			if tput > best {
				best = tput
				bestIdx = pos
			}
		}
		tr.PickedCorrectly = bestIdx == 0
		tr.Effective = fileBytes * 8 / (queryTime + firstElapsed).Seconds()
		if tr.PickedCorrectly {
			res.Correct++
		}
		res.Trials = append(res.Trials, tr)
	}
	return res, nil
}

// hostPrefixes collects the /20s the given devices live in.
func hostPrefixes(devs ...*netsim.Device) []netip.Prefix {
	seen := map[netip.Prefix]bool{}
	var out []netip.Prefix
	for _, d := range devs {
		for _, ifc := range d.Ifaces() {
			if ifc.Prefix.IsValid() && !seen[ifc.Prefix] {
				seen[ifc.Prefix] = true
				out = append(out, ifc.Prefix)
			}
		}
	}
	return out
}

// Print writes the figure in the paper's grouping.
func (r *MirrorResult) Print(w io.Writer, figure string) {
	fmt.Fprintf(w, "%s: mirrored-server selection over %d trials (%0.0f%% picked the fastest site)\n",
		figure, len(r.Trials), 100*r.FractionCorrect())
	for _, correct := range []bool{true, false} {
		label := "when Remos chose the best site"
		if !correct {
			label = "when Remos didn't choose the best site"
		}
		avg := r.AvgByRank(correct)
		fmt.Fprintf(w, "  %s:\n", label)
		for i, v := range avg {
			fmt.Fprintf(w, "    rank %d avg throughput: %6.2f Mbit/s\n", i+1, v/1e6)
		}
		fmt.Fprintf(w, "    rank 1 effective (incl. Remos query): %6.2f Mbit/s\n",
			r.AvgEffective(correct)/1e6)
	}
}
