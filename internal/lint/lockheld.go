package lint

// lockheld flags blocking operations performed while a mutex is held,
// anywhere in the module: channel sends/receives, selects without a
// default, Wait on sync.WaitGroup/Cond, network I/O (dials, listens,
// reads/writes on net connections), time.Sleep, and calls whose
// module-local call graph can reach any of those. A lock's hold time is
// a latency budget measured in nanoseconds; anything that can park the
// goroutine while holding one turns a fast path into a convoy. Nested
// acquisition is lockorder's business, judged by cycles. Blocking
// reachable only through dynamic dispatch (func-typed fields, stdlib
// interfaces) is not tracked — see DESIGN.md §10.

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
		for _, ev := range n.blockEvents {
			r.report(n.pkg.Fset, ev.pos, "lockheld",
				fmt.Sprintf("%s while holding %s", ev.what, heldText(ev.held)))
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
