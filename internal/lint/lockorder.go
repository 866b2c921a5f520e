package lint

// lockorder reports cycles in the lock order the module actually has.
// Every mutex is a class: a struct field of a named type is keyed
// pkg.Type.field (so every stripe of a shard set shares one class), any
// other mutex is its own class. The observed order is a graph with an
// edge A -> B wherever class B is acquired while A is held — directly,
// anywhere in the module-local call graph of a call made inside the
// critical section, or through dispatch on a module interface. An
// acyclic order cannot deadlock on mutexes alone; every acquisition
// site whose edge lies on a cycle is a finding. A self-loop is a cycle
// too: two stripes of one shard set, or a re-entry through a helper.

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

type lockorderCheck struct {
	cs *concState
}

func (c *lockorderCheck) run(p *pass) {
	c.cs.collect(p.pkg)
}

// lockSite is one observed edge held.class -> to of the lock order, at
// an acquisition or a call made under held.
type lockSite struct {
	node *concNode
	pos  token.Pos
	held heldLock
	to   string
	what string // how to is acquired, for messages
}

// lockSites lists every edge occurrence of the observed lock order.
func (cs *concState) lockSites() []lockSite {
	cs.finalize()
	var out []lockSite
	add := func(n *concNode, ev concEvent, to, what string) {
		for _, h := range ev.held {
			out = append(out, lockSite{node: n, pos: ev.pos, held: h, to: to, what: what})
		}
	}
	for _, n := range cs.nodes {
		for _, ev := range n.acqEvents {
			add(n, ev, ev.acq.class, "acquires "+ev.acq.class)
		}
		for _, ev := range n.callEvents {
			for _, t := range ev.call.targets {
				for _, cls := range sortedKeys(t.transAcq) {
					tr := &concTrace{via: append([]string{t.name}, t.transAcq[cls].via...)}
					add(n, ev, cls, fmt.Sprintf("call to %s acquires %s%s", ev.call.label, cls, tr.chain()))
				}
			}
		}
	}
	return out
}

// lockGraph is the observed lock order: held class -> acquired classes.
type lockGraph map[string]map[string]bool

func newLockGraph(sites []lockSite) lockGraph {
	g := make(lockGraph)
	for _, s := range sites {
		if g[s.held.class] == nil {
			g[s.held.class] = make(map[string]bool)
		}
		g[s.held.class][s.to] = true
	}
	return g
}

// path returns a shortest chain of classes from -> ... -> to, or nil
// when to is unreachable; path(a, a) is [a].
func (g lockGraph) path(from, to string) []string {
	prev := map[string]string{from: ""}
	for queue := []string{from}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		if v == to {
			var out []string
			for ; v != ""; v = prev[v] {
				out = append([]string{v}, out...)
			}
			return out
		}
		for _, w := range sortedKeys(g[v]) {
			if _, seen := prev[w]; !seen {
				prev[w] = v
				queue = append(queue, w)
			}
		}
	}
	return nil
}

func (c *lockorderCheck) finish(r *runner) {
	sites := c.cs.lockSites()
	g := newLockGraph(sites)
	type siteKey struct {
		node *concNode
		pos  token.Pos
	}
	reported := make(map[siteKey]bool)
	for _, s := range sites {
		k := siteKey{s.node, s.pos}
		if reported[k] {
			continue // one finding per site
		}
		back := g.path(s.to, s.held.class)
		if back == nil {
			continue
		}
		reported[k] = true
		cycle := strings.Join(append([]string{s.held.class}, back...), " -> ")
		r.report(s.node.pkg.Fset, s.pos, "lockorder",
			fmt.Sprintf("lock-order cycle %s: %s while holding %s (%s)", cycle, s.what, s.held.text, s.held.class))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
