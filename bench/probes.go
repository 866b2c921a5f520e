package main

import (
	"net/netip"
	"time"

	"remos/internal/maxmin"
	"remos/internal/snapshot"
	"remos/internal/topology"
)

// Probes: direct timed calls into a layer's public functions, replaying
// the workload's own inputs. They put a number on layers too thin to
// interpose on without the interposer dominating the reading.

// probeSnapshotPath times the three steps a snapshot-backed flow answer
// is made of — the freshness check, the path-index allocation, and the
// max-min run inside it — over the workload's query mix.
func probeSnapshotPath(m map[string]float64, store *snapshot.Store, hostSets [][]netip.Addr, reqs [][]topology.FlowRequest, mix []int) {
	snap := store.Current()
	if snap == nil {
		return
	}
	batch := 200
	if len(reqs[0]) > 1 {
		batch = 50
	}
	m["snapshot.fresh_us"] = probe(31, batch, func(i int) {
		store.Fresh(hostSets[mix[i%len(mix)]], time.Hour)
	})
	px := snap.Paths()
	m["topology.flowalloc_us"] = probe(31, batch, func(i int) {
		_, _ = px.FlowAlloc(reqs[mix[i%len(mix)]]) // answers were checked in the rounds
	})

	// The allocation problems FlowAlloc hands to maxmin, rebuilt from the
	// public path and link accessors: one capacity per directed link the
	// query's flows cross.
	type problem struct {
		caps  []float64
		flows []maxmin.Flow
	}
	problems := make([]problem, len(reqs))
	g := px.Graph()
	for qi, rq := range reqs {
		index := map[[2]string]int{}
		var p problem
		for _, r := range rq {
			path, err := px.Path(r.Src, r.Dst)
			if err != nil {
				continue
			}
			links := make([]int, 0, len(path))
			for h := 0; h+1 < len(path); h++ {
				key := [2]string{path[h], path[h+1]}
				li, ok := index[key]
				if !ok {
					l := g.FindLink(path[h], path[h+1])
					if l == nil {
						continue
					}
					avail := l.AvailFromTo()
					if l.From != path[h] {
						avail = l.AvailToFrom()
					}
					li = len(p.caps)
					index[key] = li
					p.caps = append(p.caps, avail)
				}
				links = append(links, li)
			}
			p.flows = append(p.flows, maxmin.Flow{Links: links, Demand: r.Demand})
		}
		problems[qi] = p
	}
	var alloc maxmin.Allocator
	var rates []float64
	m["maxmin.allocate_us"] = probe(31, 4*batch, func(i int) {
		p := &problems[mix[i%len(mix)]]
		rates, _ = alloc.AllocateInto(rates[:0], p.caps, p.flows)
	})

	// Memo build: the first allocation from each source on a path index
	// that has never seen it — what every query pays once per source
	// after an epoch swap.
	fresh := topology.NewPathIndex(g)
	seen := map[string]bool{}
	var builds []float64
	for _, rq := range reqs {
		for _, r := range rq {
			if seen[r.Src] {
				continue
			}
			seen[r.Src] = true
			t0 := time.Now()
			_, _ = fresh.FlowAlloc([]topology.FlowRequest{r}) // timing only
			builds = append(builds, us(time.Since(t0)))
		}
	}
	m["topology.memo_build_us"] = median(builds)
}
