package lint

// lockorder enforces the repo-wide lock hierarchy declared in
// Policy.LockLevels. The rule: while any ranked lock of level L is
// held, only strictly lower-ranked locks may be acquired — directly or
// anywhere in the call graph of a call made inside the critical
// section. Acquiring a same-level lock (two stripes of the same shard
// set) is always a violation: stripes have no order between them, so
// nesting them deadlocks under inverse interleaving.
//
// The hierarchy is deliberately coarse — one level per locked
// structure, lowest innermost:
//
//	10 qcache shard < 20 watch stripe < 30 obs stripe
//	   < 40 admission bucket < 50 federation router / directory
//
// so a higher-plane component (admission, federation) may call into a
// lower-plane one (obs, qcache) while locked, but never the reverse.
// Unranked mutexes are outside the hierarchy and are lockorder's
// no-op; lockheld polices nesting that involves them.

import "fmt"

type lockorderCheck struct {
	cs *concState
}

func (c *lockorderCheck) run(p *pass) {
	c.cs.collect(p.pkg)
}

func (c *lockorderCheck) finish(r *runner) {
	cs := c.cs
	cs.finalize()
	for _, n := range cs.nodes {
		for _, ev := range n.acqEvents {
			if ev.acq.class == "" {
				continue
			}
			if h, bad := worstHeld(ev.held, ev.acq.level); bad {
				r.report(n.pkg.Fset, ev.pos, "lockorder",
					orderMsg(fmt.Sprintf("acquires %s (level %d)", ev.acq.class, ev.acq.level), ev.acq.level, h))
			}
		}
		for _, ev := range n.callEvents {
			minHeld := -1
			for _, h := range ev.held {
				if h.class != "" && (minHeld < 0 || h.level < minHeld) {
					minHeld = h.level
				}
			}
			if minHeld < 0 {
				continue // no ranked lock held: nothing to order against
			}
			for _, t := range ev.call.targets {
				reported := false
				for cls, tr := range t.transAcq {
					lvl := cs.policy.LockLevels[cls]
					if lvl < minHeld {
						continue
					}
					h, _ := worstHeld(ev.held, lvl)
					r.report(n.pkg.Fset, ev.pos, "lockorder",
						orderMsg(fmt.Sprintf("call to %s acquires %s (level %d)%s",
							ev.call.label, cls, lvl, (&concTrace{via: append([]string{t.name}, tr.via...)}).chain()),
							lvl, h))
					reported = true
					break // one finding per call site
				}
				if reported {
					break
				}
			}
		}
	}
}

// worstHeld returns the held ranked lock that the acquisition of a
// level-lvl lock violates against (the lowest held level ≤ lvl), and
// whether a violation exists at all.
func worstHeld(held []heldLock, lvl int) (heldLock, bool) {
	var worst heldLock
	found := false
	for _, h := range held {
		if h.class == "" || lvl < h.level {
			continue
		}
		if !found || h.level < worst.level {
			worst = h
			found = true
		}
	}
	return worst, found
}

func orderMsg(what string, lvl int, held heldLock) string {
	if lvl == held.level {
		return fmt.Sprintf("lock hierarchy: %s while holding %s: same-level locks must never nest", what, held)
	}
	return fmt.Sprintf("lock hierarchy: %s while holding %s: only strictly lower levels may be acquired under a held lock", what, held)
}
