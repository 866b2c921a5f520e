// Package sched is the background poll scheduler of the continuous
// collection plane: remosd runs one per deployment, and instead of
// measuring only when a query arrives, the scheduler polls each
// registered target (a host set, typically a watched endpoint pair)
// on an adaptive interval — widening while readings are stable,
// narrowing when the network moves — so the system converts from
// N-clients-polling to measure-once-push-many.
//
// Every poll collects from the master and folds the result into the
// snapshot store (Config.Snapshot), the one state QUERY, FLOWS and WATCH
// answer from: a covered pair's queries find a fresh generation and cost
// no SNMP exchange. The generation each poll produced is handed to the
// watch registry (Config.OnApply) for predicate evaluation and push
// delivery. History and streaming prediction stay where the paper puts
// them, at the collectors (collector.Predictor).
package sched

import (
	"context"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"

	"remos/internal/collector"
	"remos/internal/obs"
	"remos/internal/sim"
	"remos/internal/snapshot"
)

// Config wires a Scheduler.
type Config struct {
	// Collector answers the polls: the master.
	Collector collector.Interface
	// Sched supplies timers and the clock: the simulated scheduler in
	// tests and experiments, real time in remosd.
	Sched sim.Scheduler
	// BaseInterval is a new target's starting poll interval (default
	// 2s). Adaptation stays between Base/4 and MaxInterval (default
	// 8*Base), and no two polls of a target start further apart than
	// MaxInterval: a caller that sets it to a staleness bound gets every
	// target re-polled within that bound.
	BaseInterval time.Duration
	MaxInterval  time.Duration
	// Snapshot receives every successful poll via Apply, so the
	// versioned snapshot plane advances one epoch per poll and
	// snapshot-backed queries stay fresh without their own walks.
	// Required.
	Snapshot *snapshot.Store
	// OnApply receives the generation each successful poll produced —
	// the watch registry's Evaluate hooks in here.
	OnApply func(hosts []netip.Addr, snap *snapshot.Snapshot)
	// Obs, when set, receives the scheduler's counters and per-target
	// poll-interval gauges.
	Obs *obs.Registry
}

const (
	// jitter shortens each gap by up to this fraction of the interval so
	// targets never phase-lock, and never lengthens it, so the widest gap
	// is MaxInterval itself. It is drawn from a per-target source seeded
	// by the target's key: deterministic under the simulated clock.
	jitter = 0.1
	// changeFrac is the per-edge utilization change, relative to link
	// capacity, that counts as "the network moved".
	changeFrac = 0.05
)

// Scheduler runs adaptive background poll loops. Safe for concurrent
// use; poll callbacks run on the sim.Scheduler's goroutine(s).
type Scheduler struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	targets map[string]*target
	closed  bool

	mPolls  *obs.Counter
	mErrors *obs.Counter
}

// target is one registered host set with its adaptive poll state.
type target struct {
	key      string
	hosts    []netip.Addr
	refs     int
	interval time.Duration
	timer    *sim.Timer
	rng      *rand.Rand
	last     map[collector.HistKey]float64 // per-edge utilization at previous poll
	gIval    *obs.Gauge
}

// New fills the config's defaults and returns a scheduler with no
// targets. It panics on a Config without a snapshot store: a poll would
// have nowhere to go.
func New(cfg Config) *Scheduler {
	if cfg.Snapshot == nil {
		panic("sched: Config.Snapshot is required")
	}
	if cfg.BaseInterval <= 0 {
		cfg.BaseInterval = 2 * time.Second
	}
	if cfg.MaxInterval <= 0 {
		cfg.MaxInterval = 8 * cfg.BaseInterval
	}
	if cfg.MaxInterval < cfg.BaseInterval {
		cfg.MaxInterval = cfg.BaseInterval
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:     cfg,
		ctx:     ctx,
		cancel:  cancel,
		targets: make(map[string]*target),
	}
	s.mPolls = cfg.Obs.Counter("remos_sched_polls_total", "background polls issued by the scheduler")
	s.mErrors = cfg.Obs.Counter("remos_sched_poll_errors_total", "background polls that failed")
	cfg.Obs.GaugeFunc("remos_sched_targets", "host sets under background polling", func() float64 {
		return float64(s.Targets())
	})
	return s
}

// minInterval is the floor of interval adaptation.
func (s *Scheduler) minInterval() time.Duration { return s.cfg.BaseInterval / 4 }

// targetKey canonicalizes a host set: sorted addresses joined by
// commas, so one set in any order is one target.
func targetKey(hosts []netip.Addr) string {
	ss := make([]string, len(hosts))
	for i, h := range hosts {
		ss[i] = h.String()
	}
	sort.Strings(ss)
	return strings.Join(ss, ",")
}

// AddTarget registers a host set for background polling. Targets are
// refcounted: matching AddTarget/RemoveTarget calls nest, and the poll
// loop runs while the count is positive. The first poll fires almost
// immediately (a jittered fraction of the minimum interval).
func (s *Scheduler) AddTarget(hosts []netip.Addr) {
	if len(hosts) == 0 {
		return
	}
	key := targetKey(hosts)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if t := s.targets[key]; t != nil {
		t.refs++
		return
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	t := &target{
		key:      key,
		hosts:    append([]netip.Addr(nil), hosts...),
		refs:     1,
		interval: s.cfg.BaseInterval,
		rng:      rand.New(rand.NewSource(int64(h.Sum64()))),
		last:     make(map[collector.HistKey]float64),
		gIval:    s.cfg.Obs.Gauge("remos_sched_poll_interval_seconds", "current adaptive poll interval", "target", key),
	}
	t.gIval.Set(t.interval.Seconds())
	s.targets[key] = t
	first := time.Duration(t.rng.Float64() * float64(s.minInterval()))
	t.timer = s.cfg.Sched.After(first, func() { s.poll(t) })
}

// RemoveTarget drops one reference; at zero the poll loop stops.
func (s *Scheduler) RemoveTarget(hosts []netip.Addr) {
	key := targetKey(hosts)
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.targets[key]
	if t == nil {
		return
	}
	if t.refs--; t.refs > 0 {
		return
	}
	if t.timer != nil {
		t.timer.Stop()
	}
	t.gIval.Set(0)
	delete(s.targets, key)
}

// poll runs one collection for a target, applies the result to the
// snapshot store, hands the generation to the watches, adapts the
// interval to how far the readings moved, and reschedules itself.
func (s *Scheduler) poll(t *target) {
	s.mu.Lock()
	if s.closed || s.targets[t.key] != t {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()

	q := collector.Query{Hosts: t.hosts}.WithContext(s.ctx)
	began := s.cfg.Sched.Now() // the snapshot's stamp: no reading is younger
	res, err := s.cfg.Collector.Collect(q)
	s.mPolls.Inc()

	changed := false
	if err != nil {
		s.mErrors.Inc()
	} else if res != nil && res.Graph != nil {
		maxChange := 0.0
		for _, l := range res.Graph.Links() {
			if l.Capacity <= 0 {
				continue
			}
			for _, dir := range [2]struct {
				k    collector.HistKey
				util float64
			}{
				{collector.HistKey{From: l.From, To: l.To}, l.UtilFromTo},
				{collector.HistKey{From: l.To, To: l.From}, l.UtilToFrom},
			} {
				if prev, ok := t.last[dir.k]; ok {
					if d := (dir.util - prev) / l.Capacity; d > maxChange {
						maxChange = d
					} else if -d > maxChange {
						maxChange = -d
					}
				}
				t.last[dir.k] = dir.util
			}
		}
		changed = maxChange >= changeFrac
		snap := s.cfg.Snapshot.Apply(t.hosts, res, began)
		if s.cfg.OnApply != nil {
			s.cfg.OnApply(t.hosts, snap)
		}
	}

	// Adapt: narrow on movement (or errors — the network may be in
	// trouble exactly when we fail to see it), widen while stable.
	if changed || err != nil {
		t.interval = max(s.minInterval(), t.interval/2)
	} else {
		t.interval = min(s.cfg.MaxInterval, t.interval*3/2)
	}
	t.gIval.Set(t.interval.Seconds())

	// The gap runs from this poll's start, so a walk that takes clock time
	// does not stretch it.
	next := began.Add(jittered(t.interval, jitter, t.rng))
	s.mu.Lock()
	if !s.closed && s.targets[t.key] == t {
		t.timer = s.cfg.Sched.At(next, func() { s.poll(t) })
	}
	s.mu.Unlock()
}

// jittered shortens d by a random fraction in [0, frac).
func jittered(d time.Duration, frac float64, rng *rand.Rand) time.Duration {
	if out := time.Duration(float64(d) * (1 - rng.Float64()*frac)); out > 0 {
		return out
	}
	return d
}

// Targets reports how many host sets are under background polling.
func (s *Scheduler) Targets() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.targets)
}

// Stop cancels every poll loop and in-flight collection. Idempotent.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, t := range s.targets {
		if t.timer != nil {
			t.timer.Stop()
		}
	}
	clear(s.targets)
	s.mu.Unlock()
	s.cancel()
}
