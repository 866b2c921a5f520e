// Package watch is the server-side subscription registry of the
// continuous-collection plane: clients register predicates over
// flow/topology results ("available bandwidth from A to B drops below
// X", "any change beyond Y%"), each snapshot generation a background
// poll produces is evaluated against the watches on the polled pair,
// and matching updates are pushed to subscribers instead of being
// re-polled — the measure-once-push-many shape the paper's collectors
// were built for.
//
// The registry is transport-agnostic: internal/proto drains each
// Subscription's channel onto the ASCII protocol (UPDATE lines) or the
// HTTP transport (Server-Sent Events), and remos.Connection.Watch is
// the public face. Pushes never block the measurement path — a slow
// subscriber loses intermediate updates (counted), never stalls the
// scheduler.
package watch

import (
	"fmt"
	"math"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"remos/internal/obs"
	"remos/internal/rerr"
	"remos/internal/topology"
)

// Reason strings carried on every Update.
const (
	// ReasonInit is the first evaluation after subscribing: the baseline
	// value, pushed so the client knows the starting point.
	ReasonInit = "init"
	// ReasonBelow fires when the value crosses under Spec.Below.
	ReasonBelow = "below"
	// ReasonAbove fires when the value crosses over Spec.Above.
	ReasonAbove = "above"
	// ReasonChange fires when the value moves by Spec.ChangeFrac
	// relative to the last pushed value.
	ReasonChange = "change"
)

// Spec describes one subscription: the monitored endpoint pair and the
// predicates that trigger a push. At least one of Below, Above or
// ChangeFrac must be set.
type Spec struct {
	// Src, Dst are the endpoints; the watched value is the Available a
	// one-flow FLOWS query for Src->Dst answers on the same generation
	// (the bottleneck available bandwidth of the path between them).
	Src, Dst netip.Addr
	// Below pushes when availability drops below this many bits/s
	// (edge-triggered: once per downward crossing). 0 disables.
	Below float64
	// Above pushes when availability rises above this many bits/s
	// (edge-triggered). 0 disables.
	Above float64
	// ChangeFrac pushes whenever availability moves by this fraction
	// relative to the last pushed value (0.1 = 10%). 0 disables.
	ChangeFrac float64
	// Buf is the subscription channel depth (default 16). When the
	// consumer lags this far behind, intermediate updates are dropped.
	Buf int
}

func (s Spec) validate() error {
	if !s.Src.IsValid() || !s.Dst.IsValid() {
		return fmt.Errorf("watch: spec needs valid src and dst addresses")
	}
	if s.Src == s.Dst {
		return fmt.Errorf("watch: spec watches %v to itself, which no path joins", s.Src)
	}
	if s.Below <= 0 && s.Above <= 0 && s.ChangeFrac <= 0 {
		return fmt.Errorf("watch: spec needs at least one predicate (below/above/change)")
	}
	if s.Below < 0 || s.Above < 0 || s.ChangeFrac < 0 {
		return fmt.Errorf("watch: negative predicate values")
	}
	return nil
}

// Update is one push to a subscriber.
type Update struct {
	// Seq numbers this subscription's pushes from 1; gaps reveal drops.
	Seq int64 `json:"seq"`
	// At is the sample time (the scheduler's clock).
	At time.Time `json:"at"`
	// Src, Dst echo the watched pair.
	Src netip.Addr `json:"src"`
	Dst netip.Addr `json:"dst"`
	// Avail is the bottleneck available bandwidth in bits/s.
	Avail float64 `json:"avail"`
	// Prev is the previously pushed value (0 on the first push).
	Prev float64 `json:"prev,omitempty"`
	// Reason says which predicate fired: init, below, above or change.
	Reason string `json:"reason"`
	// Err, when non-nil, is the terminal update: the typed close reason
	// (internal/rerr taxonomy) delivered just before the channel closes.
	Err error `json:"-"`
}

// Config wires a Registry to its surroundings.
type Config struct {
	// Now supplies sample timestamps: the deployment's sim clock, or
	// time.Now. Required.
	Now func() time.Time
	// EnsureTarget, when set, is called with the endpoint pair of every
	// new watch so the poll scheduler starts covering it; ReleaseTarget
	// is called when the last watch on that pair ends. The registry
	// refcounts pairs — Ensure/Release are invoked once per pair, not
	// once per subscription.
	EnsureTarget  func(hosts []netip.Addr)
	ReleaseTarget func(hosts []netip.Addr)
	// Obs, when set, receives the watch-plane gauges and counters.
	Obs *obs.Registry
}

// registryShards is the lock-striping width of the subscription store.
// Subscribe/Close traffic for distinct endpoint pairs lands on distinct
// stripes, so 10k watchers churning do not serialize on one mutex.
const registryShards = 16

// pairGroup collects every subscription watching one (unordered)
// endpoint pair. Grouping is what makes a poll's evaluation cost one
// path walk per direction, not one per subscription: the bottleneck
// bandwidth is computed once and fanned out to every predicate.
type pairGroup struct {
	subs map[int64]*Subscription
}

// regShard is one stripe: a read-write mutex over the pair groups whose
// keys hash here. Evaluate takes the read side; Subscribe/Close write.
type regShard struct {
	mu    sync.RWMutex
	pairs map[[2]netip.Addr]*pairGroup
}

// Registry holds the active subscriptions and evaluates fresh results
// against them. Safe for concurrent use.
type Registry struct {
	cfg Config

	shards [registryShards]regShard
	nextID atomic.Int64
	active atomic.Int64
	closed atomic.Bool

	mUpdates *obs.Counter
	mDrops   *obs.Counter
	mEvals   *obs.Counter
}

// defaultBuf is a subscription's channel depth when its Spec names none.
const defaultBuf = 16

// New builds an empty registry. It panics on a Config without a clock.
func New(cfg Config) *Registry {
	if cfg.Now == nil {
		panic("watch: Config.Now is required")
	}
	r := &Registry{cfg: cfg}
	for i := range r.shards {
		r.shards[i].pairs = make(map[[2]netip.Addr]*pairGroup)
	}
	cfg.Obs.GaugeFunc("remos_watch_active", "watch subscriptions currently registered", func() float64 {
		return float64(r.Active())
	})
	r.mUpdates = cfg.Obs.Counter("remos_watch_updates_total", "updates pushed to watch subscribers")
	r.mDrops = cfg.Obs.Counter("remos_watch_dropped_total", "updates dropped because a subscriber lagged")
	r.mEvals = cfg.Obs.Counter("remos_watch_evals_total", "subscription predicate evaluations")
	return r
}

// shardFor picks the stripe for an unordered pair key.
func (r *Registry) shardFor(pk [2]netip.Addr) *regShard {
	h := uint32(2166136261)
	for _, a := range pk {
		b := a.As16()
		for _, c := range b {
			h ^= uint32(c)
			h *= 16777619
		}
	}
	return &r.shards[h%registryShards]
}

// Subscription is one active watch. Updates arrive on Updates(); the
// channel closes after the terminal update (Err set) or a plain Close.
type Subscription struct {
	// ID is unique within the registry for the registry's lifetime; the
	// wire protocols use it to correlate UPDATE lines with watches.
	ID   int64
	Spec Spec

	reg *Registry
	ch  chan Update

	mu       sync.Mutex
	closed   bool
	seq      int64
	lastPush float64 // last value delivered (Prev on the next push; ChangeFrac baseline)
	lastObs  float64 // last value evaluated, pushed or not (crossing detection)
	hasPush  bool
}

// Updates returns the subscription's delivery channel.
func (s *Subscription) Updates() <-chan Update { return s.ch }

// Subscribe registers a watch. The caller must eventually call Close on
// the returned subscription (directly or via Registry.Close).
func (r *Registry) Subscribe(spec Spec) (*Subscription, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if spec.Buf <= 0 {
		spec.Buf = defaultBuf
	}
	sub := &Subscription{ID: r.nextID.Add(1), Spec: spec, reg: r, ch: make(chan Update, spec.Buf)}
	pk := pairKey(spec.Src, spec.Dst)
	sh := r.shardFor(pk)
	sh.mu.Lock()
	if r.closed.Load() {
		sh.mu.Unlock()
		return nil, rerr.Tagf(rerr.ErrCollectorUnavailable, "watch: registry closed")
	}
	g := sh.pairs[pk]
	first := g == nil
	if first {
		g = &pairGroup{subs: make(map[int64]*Subscription)}
		sh.pairs[pk] = g
	}
	g.subs[sub.ID] = sub
	sh.mu.Unlock()
	r.active.Add(1)
	if first && r.cfg.EnsureTarget != nil {
		r.cfg.EnsureTarget([]netip.Addr{spec.Src, spec.Dst})
	}
	return sub, nil
}

func pairKey(a, b netip.Addr) [2]netip.Addr {
	if b.Less(a) {
		a, b = b, a
	}
	return [2]netip.Addr{a, b}
}

// Close ends the subscription. A non-nil reason is delivered as a
// terminal update (Err set) before the channel closes; nil closes the
// channel quietly (client-initiated unsubscribe). Idempotent.
func (s *Subscription) Close(reason error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if reason != nil {
		s.seq++
		u := Update{Seq: s.seq, At: s.reg.cfg.Now(), Src: s.Spec.Src, Dst: s.Spec.Dst, Err: reason}
		// Strongly prefer delivering the close reason: if the buffer is
		// full, evict one stale update to make room. We are the sole
		// sender (evaluate holds s.mu too), so the drain below is safe.
		select {
		case s.ch <- u:
		default:
			select {
			case <-s.ch:
			default:
			}
			select {
			case s.ch <- u:
			default:
			}
		}
	}
	close(s.ch)
	s.mu.Unlock()

	r := s.reg
	pk := pairKey(s.Spec.Src, s.Spec.Dst)
	sh := r.shardFor(pk)
	sh.mu.Lock()
	last := false
	if g := sh.pairs[pk]; g != nil {
		if _, ok := g.subs[s.ID]; ok {
			delete(g.subs, s.ID)
			r.active.Add(-1)
			if len(g.subs) == 0 {
				delete(sh.pairs, pk)
				last = true
			}
		}
	}
	sh.mu.Unlock()
	if last && r.cfg.ReleaseTarget != nil {
		r.cfg.ReleaseTarget([]netip.Addr{s.Spec.Src, s.Spec.Dst})
	}
}

// evaluate runs the predicates against a fresh value and pushes if one
// fires. Returns true if an update was pushed.
func (s *Subscription) evaluate(v float64, at time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	reason := ""
	switch {
	case !s.hasPush:
		// First evaluation: push the baseline, tagged with the predicate
		// it already satisfies so a subscriber watching "below X" on a
		// path that is already under X hears immediately.
		reason = ReasonInit
		if s.Spec.Below > 0 && v < s.Spec.Below {
			reason = ReasonBelow
		} else if s.Spec.Above > 0 && v > s.Spec.Above {
			reason = ReasonAbove
		}
	// Crossings compare against the last *observed* value so a silent
	// recovery re-arms the edge; change compares against the last
	// *pushed* value so slow drifts still accumulate into a push.
	case s.Spec.Below > 0 && v < s.Spec.Below && s.lastObs >= s.Spec.Below:
		reason = ReasonBelow
	case s.Spec.Above > 0 && v > s.Spec.Above && s.lastObs <= s.Spec.Above:
		reason = ReasonAbove
	case s.Spec.ChangeFrac > 0 && relChange(v, s.lastPush) >= s.Spec.ChangeFrac:
		reason = ReasonChange
	}
	s.lastObs = v
	if reason == "" {
		return false
	}
	s.seq++
	u := Update{
		Seq: s.seq, At: at,
		Src: s.Spec.Src, Dst: s.Spec.Dst,
		Avail: v, Prev: s.lastPush, Reason: reason,
	}
	if !s.hasPush {
		u.Prev = 0
	}
	s.lastPush, s.hasPush = v, true
	select {
	case s.ch <- u:
		s.reg.mUpdates.Inc()
	default:
		s.reg.mDrops.Inc()
	}
	return true
}

// relChange is |v-prev| relative to prev, guarding a zero baseline.
func relChange(v, prev float64) float64 {
	denom := math.Abs(prev)
	if denom == 0 {
		if v == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(v-prev) / denom
}

// Evaluate runs the subscriptions watching the polled pair against the
// generation the poll produced: each watched direction's value is the
// Available of the one-flow FLOWS answer on that generation
// (PathIndex.FlowAllocAddrs, the computation FLOWS runs), computed once
// and fanned out to every predicate on it, so 10k watchers on one path
// cost one walk, not 10k.
// The scheduler calls this after each poll; a host set that is not a
// pair, or whose endpoints the generation cannot route between, is
// evaluated by nobody. Pushes are non-blocking.
func (r *Registry) Evaluate(hosts []netip.Addr, px *topology.PathIndex) {
	if len(hosts) != 2 || px == nil {
		return
	}
	pk := pairKey(hosts[0], hosts[1])
	sh := r.shardFor(pk)
	sh.mu.RLock()
	var subs []*Subscription
	if g := sh.pairs[pk]; g != nil {
		subs = make([]*Subscription, 0, len(g.subs))
		for _, s := range g.subs {
			subs = append(subs, s)
		}
	}
	sh.mu.RUnlock()
	at := r.cfg.Now()
	// vals[d] is the value in direction d: 0 from pk[0] to pk[1], 1 back.
	var vals [2]struct {
		done, ok bool
		v        float64
	}
	for _, s := range subs {
		d := 0
		if s.Spec.Src != pk[0] {
			d = 1
		}
		dv := &vals[d]
		if !dv.done {
			// The one-flow FLOWS answer on this generation: its rate is
			// the path's bottleneck, the Available FLOWS reports.
			flow := [1]topology.AddrFlow{{Src: s.Spec.Src, Dst: s.Spec.Dst}}
			err := px.FlowAllocAddrs(flow[:], nil, func(_ int, avail float64, _, _ time.Duration, _ []string) {
				dv.v = avail
			})
			dv.done, dv.ok = true, err == nil
		}
		if !dv.ok {
			continue // the generation cannot route this pair
		}
		r.mEvals.Inc()
		s.evaluate(dv.v, at)
	}
}

// Active reports the number of registered subscriptions.
func (r *Registry) Active() int {
	return int(r.active.Load())
}

// Close terminates every subscription with the given reason (nil means
// a quiet close) and rejects future Subscribe calls. Idempotent.
func (r *Registry) Close(reason error) {
	if r.closed.Swap(true) {
		return
	}
	var subs []*Subscription
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, g := range sh.pairs {
			for _, s := range g.subs {
				subs = append(subs, s)
			}
		}
		sh.mu.RUnlock()
	}
	for _, s := range subs {
		s.Close(reason)
	}
}
