// Package admission is the multi-tenant serving front end shared by
// both wire planes. It identifies each connection as a tenant, meters
// queries against per-tenant token buckets and concurrency caps,
// bounds how many watch subscriptions a tenant may hold (each watch
// pins a scheduler target that polls the collectors into the snapshot
// plane, so the watch quota is the collector-pressure quota), and runs a
// deadline-aware two-tier priority queue — interactive ahead of batch —
// that sheds gracefully with a typed rerr.ErrOverloaded carrying a retry-after
// hint instead of dropping connections.
//
// The controller is clock-injected (sim.Scheduler): token refill and
// queue deadlines are computed on the deployment clock, so tests drive
// it deterministically on sim.NewSim while remosd runs it on sim.Real.
// All methods are safe on a nil *Controller (everything admitted,
// nothing metered), so the protocol servers call it unconditionally.
package admission

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"remos/internal/obs"
	"remos/internal/rerr"
	"remos/internal/sim"
)

// Tier orders queued queries: all eligible interactive waiters dispatch
// before any batch waiter. The zero value means "use the tenant's
// configured default tier".
type Tier int

const (
	// TierDefault defers to the tenant's configured tier.
	TierDefault Tier = iota
	// Interactive queries jump the queue: a human is waiting.
	Interactive
	// Batch queries yield to interactive ones and absorb the queueing
	// delay under load.
	Batch

	numTiers = 2 // queueable tiers: interactive, batch
)

// String renders the wire form carried in the ASCII TENANT preamble and
// the X-Remos-Priority header.
func (t Tier) String() string {
	switch t {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	default:
		return "default"
	}
}

// ParseTier decodes a wire tier token. The empty string is TierDefault;
// unknown tokens are rejected so a typo'd priority fails loudly rather
// than silently dropping to batch.
func ParseTier(s string) (Tier, bool) {
	switch s {
	case "":
		return TierDefault, true
	case "interactive":
		return Interactive, true
	case "batch":
		return Batch, true
	}
	return TierDefault, false
}

// queueIndex maps a resolved tier to its queue slot.
func queueIndex(t Tier) int {
	if t == Batch {
		return 1
	}
	return 0
}

// Limits bounds one tenant. Zero fields mean unlimited, so the zero
// Limits admits everything — the anonymous default unless the operator
// tightens it.
type Limits struct {
	// Rate is the sustained query rate in queries/second refilled into
	// the token bucket. 0 = unmetered.
	Rate float64
	// Burst is the bucket capacity. 0 with a positive Rate defaults to
	// max(Rate, 1).
	Burst float64
	// MaxConcurrent caps queries in flight at once. 0 = unlimited.
	MaxConcurrent int
	// MaxWatches caps live watch subscriptions (each pins scheduler
	// targets and warm cache entries). 0 = unlimited.
	MaxWatches int
	// MaxQueued caps queries waiting in the admission queue before
	// further arrivals shed immediately. 0 defaults to DefaultMaxQueued.
	MaxQueued int
	// Tier is the default priority for queries that do not name one.
	// TierDefault resolves to Interactive.
	Tier Tier
}

// TenantConfig is one named tenant: its shared key and its limits.
type TenantConfig struct {
	// Key authenticates the tenant. The presented key must match
	// exactly (constant-time compare); an empty configured key means
	// the tenant id alone suffices.
	Key string
	// Limits bounds the tenant.
	Limits Limits
}

// Defaults for Config zero fields.
const (
	// DefaultMaxQueueWait bounds how long an admission can wait in the
	// queue before it is shed as infeasible.
	DefaultMaxQueueWait = 500 * time.Millisecond
	// DefaultMaxQueued is the per-tenant queue depth when Limits leaves
	// MaxQueued zero.
	DefaultMaxQueued = 32
)

// AnonymousTenant is the shared identity for connections that present
// no TENANT preamble or tenant header.
const AnonymousTenant = "anonymous"

// Config assembles a Controller.
type Config struct {
	// Tenants maps tenant id → key and limits. Unknown ids are rejected
	// as rerr.ErrUnauthenticated.
	Tenants map[string]TenantConfig
	// Anonymous bounds unidentified connections. The zero Limits admits
	// them unmetered.
	Anonymous Limits
	// MaxQueueWait bounds queueing delay; a queued query whose bucket
	// cannot grant within the bound (or within the caller's context
	// deadline, whichever is sooner) is shed with a retry-after hint.
	// 0 defaults to DefaultMaxQueueWait.
	MaxQueueWait time.Duration
	// Sched supplies the clock and timers. Nil defaults to sim.Real so
	// the daemon needs no wiring; tests inject sim.NewSim.
	Sched sim.Scheduler
	// Obs receives the per-tenant admission_* metrics. Nil disables.
	Obs *obs.Registry
}

// tenantState is the accounting for one tenant, guarded by the
// controller mutex.
type tenantState struct {
	id  string
	lim Limits

	tokens float64   // current bucket level
	last   time.Time // instant of last refill

	inflight int // admitted, not yet released
	watches  int // live watch subscriptions
	queued   int // waiters in the admission queue

	// grants holds a generation per release slot: a grant takes a slot,
	// and its release moves the slot's generation on, so a second call of
	// that release finds the generation moved and does nothing. free
	// lists the slots no grant holds.
	grants []uint64
	free   []int

	admitted, queuedTotal, shed int64

	mAdmitted, mQueued, mShed *obs.Counter
}

// waiter is one queued admission, parked on ch until a grant or a shed
// arrives.
type waiter struct {
	st       *tenantState
	tier     Tier
	deadline time.Time // shed when still queued at this instant
	ch       chan admitResult
}

type admitResult struct {
	release func()
	err     error
}

// Controller meters admissions across all tenants. A single mutex
// guards all state: admission decisions are a few comparisons, so the
// serialization is invisible next to the queries they gate.
type Controller struct {
	sched   sim.Scheduler
	maxWait time.Duration

	mu      sync.Mutex
	cfg     map[string]TenantConfig
	anon    Limits
	tenants map[string]*tenantState
	queues  [numTiers][]*waiter
	timer   *sim.Timer
	closed  bool

	obs *obs.Registry
}

// New builds a Controller from cfg.
func New(cfg Config) *Controller {
	c := &Controller{
		sched:   cfg.Sched,
		maxWait: cfg.MaxQueueWait,
		cfg:     cfg.Tenants,
		anon:    cfg.Anonymous,
		tenants: make(map[string]*tenantState),
		obs:     cfg.Obs,
	}
	if c.sched == nil {
		c.sched = sim.Real{}
	}
	if c.maxWait <= 0 {
		c.maxWait = DefaultMaxQueueWait
	}
	cfg.Obs.GaugeFunc("remos_admission_queue_depth", "queries waiting in the admission queue", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, q := range c.queues {
			n += len(q)
		}
		return float64(n)
	})
	cfg.Obs.GaugeFunc("remos_admission_tenants", "tenant identities seen by the admission layer", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.tenants))
	})
	return c
}

// Tenant is an authenticated identity handle. The zero Tenant admits
// everything — what Authenticate on a nil Controller returns — so
// callers thread it unconditionally.
type Tenant struct {
	st *tenantState
}

// ID reports the authenticated tenant id, or "" for the zero Tenant.
func (t Tenant) ID() string {
	if t.st == nil {
		return ""
	}
	return t.st.id
}

// DefaultTier is the tier a query runs at when it names none.
func (t Tenant) DefaultTier() Tier {
	if t.st == nil || t.st.lim.Tier == TierDefault {
		return Interactive
	}
	return t.st.lim.Tier
}

// Authenticate resolves a presented (id, key) pair to a Tenant handle.
// An empty id is the shared anonymous tenant; an unknown id or a
// mismatched key is rerr.ErrUnauthenticated. On a nil Controller every
// identity authenticates to the zero (unmetered) Tenant.
func (c *Controller) Authenticate(id, key string) (Tenant, error) {
	if c == nil {
		return Tenant{}, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if id == "" || id == AnonymousTenant {
		if key != "" {
			return Tenant{}, rerr.Tagf(rerr.ErrUnauthenticated, "admission: anonymous connections present no key")
		}
		return Tenant{st: c.state(AnonymousTenant, c.anon)}, nil
	}
	tc, ok := c.cfg[id]
	if !ok {
		return Tenant{}, rerr.Tagf(rerr.ErrUnauthenticated, "admission: unknown tenant %q", id)
	}
	if subtle.ConstantTimeCompare([]byte(tc.Key), []byte(key)) != 1 {
		return Tenant{}, rerr.Tagf(rerr.ErrUnauthenticated, "admission: bad key for tenant %q", id)
	}
	return Tenant{st: c.state(id, tc.Limits)}, nil
}

// state finds or creates the accounting for id. Caller holds c.mu.
func (c *Controller) state(id string, lim Limits) *tenantState {
	st := c.tenants[id]
	if st != nil {
		return st
	}
	if lim.Rate > 0 && lim.Burst <= 0 {
		lim.Burst = lim.Rate
		if lim.Burst < 1 {
			lim.Burst = 1
		}
	}
	if lim.MaxQueued <= 0 {
		lim.MaxQueued = DefaultMaxQueued
	}
	st = &tenantState{
		id:        id,
		lim:       lim,
		tokens:    lim.Burst,
		last:      c.sched.Now(),
		mAdmitted: c.obs.Counter("remos_admission_admitted_total", "queries admitted by the serving front end", "tenant", id),
		mQueued:   c.obs.Counter("remos_admission_queued_total", "queries that waited in the admission queue", "tenant", id),
		mShed:     c.obs.Counter("remos_admission_shed_total", "queries shed by the admission layer", "tenant", id),
	}
	c.tenants[id] = st
	return st
}

// refill lazily tops up st's bucket to now. Caller holds c.mu.
func (st *tenantState) refill(now time.Time) {
	if st.lim.Rate <= 0 {
		return
	}
	if dt := now.Sub(st.last); dt > 0 {
		st.tokens += st.lim.Rate * dt.Seconds()
		if st.tokens > st.lim.Burst {
			st.tokens = st.lim.Burst
		}
	}
	st.last = now
}

// tokenWait is how long until st's bucket holds a full token, from now.
// 0 means a token is available. Caller holds c.mu, after refill(now).
func (st *tenantState) tokenWait() time.Duration {
	if st.lim.Rate <= 0 || st.tokens >= 1 {
		return 0
	}
	return time.Duration((1 - st.tokens) / st.lim.Rate * float64(time.Second))
}

// hasSlot reports whether st is under its concurrency cap.
func (st *tenantState) hasSlot() bool {
	return st.lim.MaxConcurrent <= 0 || st.inflight < st.lim.MaxConcurrent
}

// grant consumes a token and a slot. Caller holds c.mu and has
// established eligibility. The release it returns is the grant's one
// allocation: a closure over the slot of st.grants the grant holds and
// that slot's generation at the grant.
func (c *Controller) grant(st *tenantState) func() {
	if st.lim.Rate > 0 {
		st.tokens--
	}
	st.inflight++
	st.admitted++
	st.mAdmitted.Inc()
	slot := len(st.grants)
	if n := len(st.free); n > 0 {
		slot, st.free = st.free[n-1], st.free[:n-1]
	} else {
		st.grants = append(st.grants, 0)
	}
	gen := st.grants[slot]
	return func() {
		c.mu.Lock()
		if st.grants[slot] != gen {
			c.mu.Unlock()
			return // released already
		}
		st.grants[slot]++
		st.free = append(st.free, slot)
		st.inflight--
		ds := c.dispatch(c.sched.Now())
		c.mu.Unlock()
		deliver(ds)
	}
}

// delivery is one dispatch outcome bound for a waiter's channel. The
// sends happen outside c.mu: the channels are buffered, but the lock
// hierarchy treats any channel send as a parking point, and keeping the
// controller lock free of them costs nothing.
type delivery struct {
	w   *waiter
	res admitResult
}

// deliver completes queued admissions after the controller lock is
// released. Each waiter channel has capacity 1 and receives exactly one
// result, so these sends never block.
func deliver(ds []delivery) {
	for _, d := range ds {
		d.w.ch <- d.res
	}
}

// shedErr builds the typed overload error for st with a retry hint.
// Caller holds c.mu.
func (st *tenantState) shedErr(hint time.Duration, why string) error {
	st.shed++
	st.mShed.Inc()
	return rerr.WithRetryAfter(
		rerr.Tagf(rerr.ErrOverloaded, "admission: tenant %q %s", st.id, why), hint)
}

// Admit gates one query for t at tier. It returns a release func the
// caller must invoke when the query finishes, or a typed
// rerr.ErrOverloaded (with retry-after hint) when the query is shed.
// A query that cannot run immediately waits in the priority queue up to
// min(MaxQueueWait, ctx deadline); ctx cancellation abandons the wait.
// Nil Controllers and zero Tenants admit with a no-op release.
func (c *Controller) Admit(ctx context.Context, t Tenant, tier Tier) (func(), error) {
	if c == nil || t.st == nil {
		return func() {}, nil
	}
	st := t.st
	if tier == TierDefault {
		tier = t.DefaultTier()
	}

	c.mu.Lock()
	now := c.sched.Now()
	st.refill(now)

	// Fast path: token and slot both available, nothing queued ahead at
	// this tier (FIFO within a tier — arrivals must not leapfrog
	// waiters of their own tenant).
	qi := queueIndex(tier)
	if st.queued == 0 && st.tokenWait() == 0 && st.hasSlot() {
		release := c.grant(st)
		c.mu.Unlock()
		return release, nil
	}

	// Compute the deadline this wait must meet.
	deadline := now.Add(c.maxWait)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}

	// Shed now rather than queue what cannot be served: queue full, or
	// the bucket cannot grant a token before the deadline.
	if st.queued >= st.lim.MaxQueued {
		err := st.shedErr(c.maxWait, "queue full")
		c.mu.Unlock()
		return nil, err
	}
	if w := st.tokenWait(); w > 0 && now.Add(w).After(deadline) {
		err := st.shedErr(w, "out of tokens")
		c.mu.Unlock()
		return nil, err
	}

	w := &waiter{st: st, tier: tier, deadline: deadline, ch: make(chan admitResult, 1)}
	st.queued++
	st.queuedTotal++
	st.mQueued.Inc()
	c.queues[qi] = append(c.queues[qi], w)
	ds := c.dispatch(now) // arms the wake timer for this waiter
	c.mu.Unlock()
	deliver(ds)

	select {
	case res := <-w.ch:
		return res.release, res.err
	case <-ctx.Done():
		c.mu.Lock()
		if c.removeWaiter(w) {
			c.mu.Unlock()
			return nil, ctx.Err()
		}
		c.mu.Unlock()
		// Lost the race: a grant or shed is already in the channel.
		res := <-w.ch
		if res.release != nil {
			res.release()
		}
		return nil, ctx.Err()
	}
}

// removeWaiter unlinks w from its queue, reporting whether it was still
// queued. Caller holds c.mu.
func (c *Controller) removeWaiter(w *waiter) bool {
	qi := queueIndex(w.tier)
	for i, q := range c.queues[qi] {
		if q == w {
			c.queues[qi] = append(c.queues[qi][:i], c.queues[qi][i+1:]...)
			w.st.queued--
			return true
		}
	}
	return false
}

// dispatch scans the queues in tier order, shedding expired waiters,
// granting eligible ones, and arming a timer for the earliest future
// wake (token availability or deadline). Caller holds c.mu, and must
// deliver the returned results after releasing it — no channel sends
// happen under the controller lock. Within a tier the scan is FIFO per
// tenant but skips token-starved tenants so one drained bucket cannot
// head-of-line-block the others.
func (c *Controller) dispatch(now time.Time) []delivery {
	var ds []delivery
	var wake time.Time
	for qi := range c.queues {
		kept := c.queues[qi][:0]
		for _, w := range c.queues[qi] {
			st := w.st
			if !now.Before(w.deadline) {
				st.queued--
				ds = append(ds, delivery{w: w, res: admitResult{err: st.shedErr(st.tokenWait(), "queue wait exceeded")}})
				continue
			}
			st.refill(now)
			tw := st.tokenWait()
			if tw == 0 && st.hasSlot() {
				st.queued--
				ds = append(ds, delivery{w: w, res: admitResult{release: c.grant(st)}})
				continue
			}
			kept = append(kept, w)
			// Earliest instant this waiter could change state: its
			// token arrival if token-short (slot releases re-dispatch
			// on their own), else its deadline.
			at := w.deadline
			if tw > 0 {
				if t := now.Add(tw); t.Before(at) {
					at = t
				}
			}
			if wake.IsZero() || at.Before(wake) {
				wake = at
			}
		}
		// Null out the tail so dropped waiters are collectable.
		for i := len(kept); i < len(c.queues[qi]); i++ {
			c.queues[qi][i] = nil
		}
		c.queues[qi] = kept
	}
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	if !wake.IsZero() && !c.closed {
		c.timer = c.sched.At(wake, func() {
			c.mu.Lock()
			late := c.dispatch(c.sched.Now())
			c.mu.Unlock()
			deliver(late)
		})
	}
	return ds
}

// AcquireWatch charges one watch subscription to t's quota, returning a
// release func (idempotent) for the subscription's teardown path, or a
// typed rerr.ErrOverloaded when the quota is exhausted. Watches pin
// scheduler targets, each polled into the snapshot plane, so this quota
// is what bounds a tenant's standing collector pressure.
func (c *Controller) AcquireWatch(t Tenant) (func(), error) {
	if c == nil || t.st == nil {
		return func() {}, nil
	}
	st := t.st
	c.mu.Lock()
	defer c.mu.Unlock()
	if st.lim.MaxWatches > 0 && st.watches >= st.lim.MaxWatches {
		st.shed++
		st.mShed.Inc()
		return nil, rerr.Tagf(rerr.ErrOverloaded, "admission: tenant %q watch quota exhausted (%d active)", st.id, st.watches)
	}
	st.watches++
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			st.watches--
			c.mu.Unlock()
		})
	}, nil
}

// Close sheds every queued waiter and stops the wake timer. Grants
// already released are unaffected; release funcs remain safe to call.
func (c *Controller) Close() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.closed = true
	var ds []delivery
	for qi := range c.queues {
		for _, w := range c.queues[qi] {
			w.st.queued--
			ds = append(ds, delivery{w: w, res: admitResult{err: w.st.shedErr(0, "server shutting down")}})
		}
		c.queues[qi] = nil
	}
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	c.mu.Unlock()
	deliver(ds)
}

// TenantStatus is one tenant's accounting snapshot, as served on
// /debug/tenants and by remosctl tenants.
type TenantStatus struct {
	Tenant        string  `json:"tenant"`
	Tier          string  `json:"tier"`
	Rate          float64 `json:"rate,omitempty"`
	Burst         float64 `json:"burst,omitempty"`
	Tokens        float64 `json:"tokens"`
	InFlight      int     `json:"in_flight"`
	MaxConcurrent int     `json:"max_concurrent,omitempty"`
	Watches       int     `json:"watches"`
	MaxWatches    int     `json:"max_watches,omitempty"`
	Queued        int     `json:"queued"`
	Admitted      int64   `json:"admitted"`
	QueuedTotal   int64   `json:"queued_total"`
	Shed          int64   `json:"shed"`
}

// Snapshot reports every tenant seen so far, buckets refilled to now,
// sorted by tenant id. Nil Controllers report nothing.
func (c *Controller) Snapshot() []TenantStatus {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.sched.Now()
	out := make([]TenantStatus, 0, len(c.tenants))
	for _, st := range c.tenants {
		st.refill(now)
		tokens := st.tokens
		if st.lim.Rate <= 0 {
			tokens = 0
		}
		out = append(out, TenantStatus{
			Tenant:        st.id,
			Tier:          Tenant{st: st}.DefaultTier().String(),
			Rate:          st.lim.Rate,
			Burst:         st.lim.Burst,
			Tokens:        tokens,
			InFlight:      st.inflight,
			MaxConcurrent: st.lim.MaxConcurrent,
			Watches:       st.watches,
			MaxWatches:    st.lim.MaxWatches,
			Queued:        st.queued,
			Admitted:      st.admitted,
			QueuedTotal:   st.queuedTotal,
			Shed:          st.shed,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// DebugHandler serves the Snapshot as JSON — mounted by remosd at
// /debug/tenants.
func (c *Controller) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"tenants": c.Snapshot()}) //nolint:errcheck
	})
}
