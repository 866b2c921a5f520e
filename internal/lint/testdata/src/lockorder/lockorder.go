// The lockorder fixture: every mutex field is a class, and every
// acquisition whose edge of the observed lock order lies on a cycle (or
// is a self-loop) is a finding. No hierarchy is declared anywhere.
package lockorder

import "sync"

type Inner struct {
	mu sync.Mutex
}

type Outer struct {
	mu sync.RWMutex
	in *Inner
}

// ascending and descending take Inner and Outer in opposite orders:
// together they are one cycle, so both sites are findings.
func ascending(o *Outer, in *Inner) {
	in.mu.Lock()
	o.mu.Lock() // want `lock-order cycle lockorder\.Inner\.mu -> lockorder\.Outer\.mu -> lockorder\.Inner\.mu: acquires lockorder\.Outer\.mu while holding in\.mu \(lockorder\.Inner\.mu\)`
	o.mu.Unlock()
	in.mu.Unlock()
}

func descending(o *Outer) {
	o.mu.Lock()
	o.in.mu.Lock() // want `lock-order cycle lockorder\.Outer\.mu -> lockorder\.Inner\.mu -> lockorder\.Outer\.mu: acquires lockorder\.Inner\.mu`
	o.in.mu.Unlock()
	o.mu.Unlock()
}

type locker interface{ grab() }

func (o *Outer) grab() {
	o.mu.Lock()
	o.mu.Unlock()
}

// ifaceCall dispatches through a module interface: conservatively every
// implementation, so Outer.grab's acquisition is an Inner -> Outer edge,
// on the same cycle.
func ifaceCall(l locker, in *Inner) {
	in.mu.Lock()
	defer in.mu.Unlock()
	l.grab() // want `call to l\.grab acquires lockorder\.Outer\.mu via lockorder\.\(Outer\)\.grab while holding in\.mu`
}

type Stripe struct {
	mu sync.Mutex
	n  int
}

// twoStripes nests two locks of one class: stripes have no order
// between them, so this deadlocks under inverse interleaving.
func twoStripes(a, b *Stripe) {
	a.mu.Lock()
	b.mu.Lock() // want `lock-order cycle lockorder\.Stripe\.mu -> lockorder\.Stripe\.mu: acquires`
	b.mu.Unlock()
	a.mu.Unlock()
}

func lockStripe(s *Stripe) {
	s.mu.Lock()
	s.mu.Unlock()
}

func helper(s *Stripe) { lockStripe(s) }

// viaCall reaches the self-loop through the call graph.
func viaCall(a, b *Stripe) {
	a.mu.Lock()
	defer a.mu.Unlock()
	helper(b) // want `call to helper acquires lockorder\.Stripe\.mu via lockorder\.helper -> lockorder\.lockStripe while holding a\.mu`
}

// deferredHeld: a deferred unlock keeps the section open to the end of
// the function, so the second acquisition is a re-entry.
func deferredHeld(s *Stripe) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	s.mu.Lock() // want `lockorder\.Stripe\.mu -> lockorder\.Stripe\.mu: acquires lockorder\.Stripe\.mu while holding s\.mu`
	s.mu.Unlock()
}

// sequential sections don't nest: no finding.
func sequential(a, b *Stripe) {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

type Reader struct{ mu sync.RWMutex }

type Leaf struct{ mu sync.Mutex }

// rlocked: a read lock counts as held, and a nesting on no cycle is
// legal.
func rlocked(r *Reader, l *Leaf) {
	r.mu.RLock()
	l.mu.Lock()
	l.mu.Unlock()
	r.mu.RUnlock()
}
