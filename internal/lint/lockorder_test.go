package lint

// White-box tests for the lockorder call-graph builder, over the
// two-package module under testdata/mod/lockmod (cross-package method
// calls, interface dispatch, deferred unlocks) and over the repository
// itself.

import (
	"path/filepath"
	"strings"
	"testing"
)

func loadLockmod(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := LoadModule(filepath.Join("testdata", "mod", "lockmod"))
	if err != nil {
		t.Fatalf("load lockmod: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2 (a, b)", len(pkgs))
	}
	return pkgs
}

func buildConcState(pkgs []*Package) *concState {
	cs := newConcState()
	for _, pkg := range pkgs {
		cs.collect(pkg)
	}
	cs.finalize()
	return cs
}

func TestLockorderCallGraph(t *testing.T) {
	cs := buildConcState(loadLockmod(t))
	node := func(name string) *concNode {
		t.Helper()
		for _, n := range cs.nodes {
			if n.name == name {
				return n
			}
		}
		t.Fatalf("no call-graph node named %q (have %d nodes)", name, len(cs.nodes))
		return nil
	}

	// Cross-package method edge: Descend's transitive acquisitions must
	// include the stripe class, reached through a.Bump in the other
	// package.
	d := node("b.(Outer).Descend")
	if tr := d.transAcq["a.Stripe.mu"]; tr == nil {
		t.Errorf("Descend does not see a.Stripe.mu transitively; cross-package method calls are unmodeled")
	} else if len(tr.via) == 0 || tr.via[0] != "a.(Stripe).Bump" {
		t.Errorf("Descend's trace to a.Stripe.mu goes via %v, want a.(Stripe).Bump", tr.via)
	}

	// Interface expansion: WithLock dispatches through a.Grabber, whose
	// only module implementation is b.Outer — its acquisition must be
	// visible despite the dynamic call.
	w := node("a.(Stripe).WithLock")
	found := false
	for _, c := range w.calls {
		for _, tgt := range c.targets {
			if tgt.name == "b.(Outer).Grab" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("WithLock's interface dispatch did not expand to b.(Outer).Grab")
	}

	// Deferred unlock: Reacquire's call to Bump must happen with the
	// stripe lock recorded as still held.
	r := node("a.(Stripe).Reacquire")
	if len(r.callEvents) == 0 {
		t.Fatalf("Reacquire records no under-lock call events; deferred unlock released the section early")
	}
	held := r.callEvents[0].held
	if len(held) != 1 || held[0].class != "a.Stripe.mu" {
		t.Errorf("Reacquire's call event holds %v, want [a.Stripe.mu]", held)
	}
}

// TestLockorderModuleFindings runs the full suite over lockmod. The
// interface dispatch (a.Stripe.mu -> b.Outer.mu) and the cross-package
// descent (b.Outer.mu -> a.Stripe.mu) form one cycle, so both sites are
// findings; Reacquire's call back into Bump is a self-loop.
func TestLockorderModuleFindings(t *testing.T) {
	diags := Run(loadLockmod(t), DefaultPolicy())
	want := map[string]string{
		"a.go g.Grab":   "lock-order cycle a.Stripe.mu -> b.Outer.mu -> a.Stripe.mu: call to g.Grab",
		"b.go o.S.Bump": "lock-order cycle b.Outer.mu -> a.Stripe.mu -> b.Outer.mu: call to o.S.Bump",
		"a.go s.Bump":   "lock-order cycle a.Stripe.mu -> a.Stripe.mu: call to s.Bump",
	}
	for _, d := range diags {
		matched := false
		for k, prefix := range want {
			if d.Check == "lockorder" && strings.HasPrefix(d.Message, prefix) && strings.HasPrefix(k, filepath.Base(d.File)) {
				delete(want, k)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k := range want {
		t.Errorf("missing finding: %s", k)
	}
}

// TestRepoLockGraph pins what lockorder sees of the repository: the
// observed lock order is acyclic, and it contains cross-package edges
// that no table ever ranked — a substrate regression that stops seeing
// them fails here instead of passing as "clean".
func TestRepoLockGraph(t *testing.T) {
	cs := buildConcState(loadRepo(t))
	g := newLockGraph(cs.lockSites())
	classes := make(map[string]bool)
	for _, n := range cs.nodes {
		for cls := range n.transAcq {
			classes[cls] = true
		}
	}
	edges := 0
	for from, tos := range g {
		for to := range tos {
			edges++
			if back := g.path(to, from); back != nil {
				t.Errorf("lock-order cycle %s -> %s", from, strings.Join(back, " -> "))
			}
		}
	}
	t.Logf("%d mutex classes, %d observed lock-order edges", len(classes), edges)
	for _, e := range [][2]string{
		{"admission.Controller.mu", "obs.Registry.mu"},
		{"mib.DeviceView.mu", "netsim.Network.mu"},
		{"netsim.Network.mu", "netsim.AccessPoint.mu"},
	} {
		if !g[e[0]][e[1]] {
			t.Errorf("observed lock order lacks the edge %s -> %s", e[0], e[1])
		}
	}
}
