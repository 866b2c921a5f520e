package lint

// lockheld flags blocking operations performed while a mutex is held in
// the hot-path packages (Policy.LockHeld): channel sends/receives,
// selects without a default, Wait on sync.WaitGroup/Cond, network I/O
// (dials, listens, reads/writes on net connections), time.Sleep,
// acquiring an unranked mutex while another is held, and calls whose
// module-local call graph can reach any of those. A stripe or shard
// lock is a latency budget measured in nanoseconds; anything that can
// park the goroutine while holding one turns a cache hit into a convoy.
//
// Division of labor with lockorder: nesting of two RANKED locks is
// hierarchy business and is reported (or sanctioned) by lockorder
// alone; lockheld reports nested acquisition only when the acquired or
// the held mutex is unranked, where no hierarchy argument exists.
// Blocking reachable only through dynamic dispatch (func-typed fields,
// stdlib interfaces) is not tracked — see DESIGN.md §10.

import "fmt"

type lockheldCheck struct {
	cs *concState
}

func (c *lockheldCheck) run(p *pass) {
	c.cs.collect(p.pkg)
}

func (c *lockheldCheck) finish(r *runner) {
	cs := c.cs
	cs.finalize()
	for _, n := range cs.nodes {
		if !cs.policy.LockHeld[n.pkg.Name] {
			continue
		}
		for _, ev := range n.blockEvents {
			r.report(n.pkg.Fset, ev.pos, "lockheld",
				fmt.Sprintf("%s while holding %s", ev.what, heldText(ev.held)))
		}
		for _, ev := range n.acqEvents {
			if ev.acq.class != "" && allRankedAbove(ev.held, ev.acq.level) {
				continue // ranked, strictly descending: lockorder's jurisdiction, and legal
			}
			if ev.acq.class != "" && anyRanked(ev.held) {
				continue // ranked-vs-ranked violation: reported by lockorder, not twice
			}
			r.report(n.pkg.Fset, ev.pos, "lockheld",
				fmt.Sprintf("acquires %s while holding %s", ev.acq.text, heldText(ev.held)))
		}
		for _, ev := range n.callEvents {
			for _, t := range ev.call.targets {
				if t.transBlock == nil {
					continue
				}
				tr := t.transBlock
				r.report(n.pkg.Fset, ev.pos, "lockheld",
					fmt.Sprintf("call to %s may block (%s%s) while holding %s",
						ev.call.label, tr.what,
						(&concTrace{via: append([]string{t.name}, tr.via...)}).chain(),
						heldText(ev.held)))
				break // one finding per call site
			}
		}
	}
}

func anyRanked(held []heldLock) bool {
	for _, h := range held {
		if h.class != "" {
			return true
		}
	}
	return false
}

// allRankedAbove reports whether every held lock is ranked and strictly
// outranks lvl — the sanctioned descending-acquisition pattern.
func allRankedAbove(held []heldLock, lvl int) bool {
	for _, h := range held {
		if h.class == "" || h.level <= lvl {
			return false
		}
	}
	return true
}
