// Package qcache puts a warm-query cache with single-flight deduplication
// in front of any collector — normally the Master Collector, where it
// turns the paper's cold/warm gap (Fig. 3) into an explicit serving
// layer: a cold query pays the full collector fan-out, every identical
// query inside the staleness bound answers from the cached topology, and
// N concurrent identical queries (the "millions of users" scenario)
// trigger exactly one fan-out whose answer all N share.
//
// The cache key is the sorted host set plus the query flags, so host
// order never fragments the cache. Results are deep-copied on the way
// out: consumers may annotate or mutate their answer without corrupting
// the cached copy or each other's.
//
// Storage is sharded by key hash, and each shard publishes its entry map
// as an immutable copy-on-write snapshot: the warm-hit path is one atomic
// pointer load plus a read of a map no writer ever mutates, so hits never
// take a lock and hit throughput scales with CPUs instead of serializing
// on a cache-wide mutex. Writers (misses, eviction, invalidation) take
// the shard mutex, copy the shard map, and publish the replacement —
// cheap, because a write already pays a collector fan-out and shards stay
// small (see Config.Shards).
package qcache

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"remos/internal/collector"
	"remos/internal/obs"
)

// Config tunes the cache.
type Config struct {
	// TTL is the staleness bound: a cached answer older than this is
	// re-collected. TTL <= 0 disables retention — the cache then only
	// coalesces concurrent identical queries (pure single-flight).
	TTL time.Duration
	// Now supplies the clock entries age on: the deployment's sim clock,
	// so TTLs follow simulated time, or time.Now. Required.
	Now func() time.Time
	// MaxEntries bounds the number of retained answers (default 1024);
	// the oldest entries are evicted first. The bound is enforced per
	// shard (MaxEntries/shards each), so a pathological key skew can
	// hold the total slightly under MaxEntries on other shards.
	MaxEntries int
	// Shards is the lock-striping width (default 32, rounded down to a
	// power of two). It is additionally capped so every shard can hold
	// at least 8 entries, which keeps small caches on one shard — and
	// Shards: 1 gives the deterministic global eviction order the tests
	// pin.
	Shards int
	// Obs, when set, receives hit/miss/coalesce/evict counters. Nil
	// disables instrumentation.
	Obs *obs.Registry
}

// Stats is a snapshot of cache effectiveness counters.
type Stats struct {
	// Hits answered from a fresh cached result.
	Hits int64
	// Misses went through to the inner collector.
	Misses int64
	// Coalesced callers shared another caller's in-flight collection
	// instead of starting their own.
	Coalesced int64
	// Evictions counts entries dropped for capacity.
	Evictions int64
}

// entry is one cache slot. done closes when the in-flight collection
// lands; res/err/at are written exactly once before the close and only
// read after it.
type entry struct {
	done chan struct{}
	res  *collector.Result
	err  error
	at   time.Time
}

func (e *entry) landed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// entryMap is an immutable snapshot of one shard's entries. Readers load
// it atomically and never see a map being written; writers build a
// replacement under the shard mutex and publish it with one store.
type entryMap map[string]*entry

// shard is one lock stripe: the mutex serializes writers only.
type shard struct {
	mu sync.Mutex
	m  atomic.Pointer[entryMap]
}

func (s *shard) load() entryMap { return *s.m.Load() }

// cloneFor copies the current map with room for one more entry. Callers
// hold s.mu.
func (s *shard) cloneFor() entryMap {
	cur := s.load()
	next := make(entryMap, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	return next
}

// Cache is a caching, deduplicating collector wrapper. It implements
// collector.Interface and is safe for concurrent use.
type Cache struct {
	inner collector.Interface
	cfg   Config

	shards    []shard
	shardMask uint32
	perShard  int // MaxEntries budget per shard

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64

	mHits         *obs.Counter
	mMisses       *obs.Counter
	mCoalesced    *obs.Counter
	mEvictions    *obs.Counter
	mInvalidation *obs.Counter
}

// New wraps a collector with a warm-query cache. It panics on a Config
// without a clock: a cache silently ageing entries on the wall clock
// beside a deployment on simulated time is a wiring bug.
func New(inner collector.Interface, cfg Config) *Cache {
	if cfg.Now == nil {
		panic("qcache: Config.Now is required")
	}
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 1024
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 32
	}
	n := 1
	for n*2 <= cfg.Shards && cfg.MaxEntries/(n*2) >= 8 {
		n *= 2
	}
	c := &Cache{
		inner:     inner,
		cfg:       cfg,
		shards:    make([]shard, n),
		shardMask: uint32(n - 1),
		perShard:  (cfg.MaxEntries + n - 1) / n,
	}
	empty := make(entryMap)
	for i := range c.shards {
		c.shards[i].m.Store(&empty)
	}
	c.mHits = cfg.Obs.Counter("remos_qcache_hits_total", "queries answered from the warm cache")
	c.mMisses = cfg.Obs.Counter("remos_qcache_misses_total", "queries that went through to the collector")
	c.mCoalesced = cfg.Obs.Counter("remos_qcache_coalesced_total", "queries that shared another caller's in-flight collection")
	c.mEvictions = cfg.Obs.Counter("remos_qcache_evictions_total", "cache entries dropped for capacity")
	c.mInvalidation = cfg.Obs.Counter("remos_qcache_invalidations_total", "cache entries dropped by explicit invalidation")
	cfg.Obs.GaugeFunc("remos_qcache_entries", "cached answers currently retained", func() float64 { return float64(c.Len()) })
	return c
}

// Name implements collector.Interface, transparently: the cache answers
// under the wrapped collector's identity.
func (c *Cache) Name() string { return c.inner.Name() }

// shardFor picks the stripe for a key (FNV-1a over the key bytes).
func (c *Cache) shardFor(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h&c.shardMask]
}

// Key renders the canonical cache key for a query: the host set sorted
// by its text (so host order does not fragment the cache) plus the query
// flags. Every host renders into one scratch buffer through netip's
// AppendTo and the rendered spans are sorted in place, so the only
// allocation is the returned string — this sits on the warm-hit path —
// plus the scratch itself for a query of more than smallHosts hosts.
func Key(q collector.Query) string {
	var bufArr [smallHosts * addrText]byte
	var spanArr [smallHosts][2]int
	buf, spans := bufArr[:0], spanArr[:0]
	if n := len(q.Hosts); n > smallHosts {
		buf, spans = make([]byte, 0, n*addrText), make([][2]int, 0, n)
	}
	for _, h := range q.Hosts {
		start := len(buf)
		buf = h.AppendTo(buf)
		spans = append(spans, [2]int{start, len(buf)})
	}
	slices.SortFunc(spans, func(a, b [2]int) int {
		return bytes.Compare(buf[a[0]:a[1]], buf[b[0]:b[1]])
	})
	var out strings.Builder
	out.Grow(len(buf) + len(spans) + len("|hist|pred"))
	for i, sp := range spans {
		if i > 0 {
			out.WriteByte(',')
		}
		out.Write(buf[sp[0]:sp[1]])
	}
	if q.WithHistory {
		out.WriteString("|hist")
	}
	if q.WithPredictions {
		out.WriteString("|pred")
	}
	return out.String()
}

// smallHosts bounds the queries Key renders in stack scratch: they cover
// the serving workload (pairs and small host sets). addrText is the room
// one address is given: enough for a zone-qualified IPv6 literal.
const (
	smallHosts = 8
	addrText   = 48
)

// Collect implements collector.Interface. Identical queries inside the
// TTL answer from cache; concurrent identical queries share a single
// inner collection; distinct queries proceed independently.
func (c *Cache) Collect(q collector.Query) (*collector.Result, error) {
	ctx := q.Context()
	tr := obs.FromContext(ctx)
	key := Key(q)
	sh := c.shardFor(key)
	var e *entry
	for {
		e = sh.load()[key]
		if e != nil {
			if !e.landed() {
				// In flight: wait without any lock and share the answer.
				// The waiter also honors its own context — the flight
				// belongs to the caller that started it and keeps running.
				select {
				case <-e.done:
				case <-ctx.Done():
					tr.Event("cache", "canceled waiting on in-flight query")
					return nil, ctx.Err()
				}
				if e.err != nil {
					return nil, e.err
				}
				c.coalesced.Add(1)
				c.mCoalesced.Inc()
				tr.Event("cache", "coalesced")
				return e.res.Clone(), nil
			}
			if e.err == nil && c.cfg.TTL > 0 && c.cfg.Now().Sub(e.at) < c.cfg.TTL {
				// The warm hit: an atomic snapshot load, a read of an
				// immutable map, and atomic counters — no lock, exclusive
				// or shared, anywhere on this path.
				c.hits.Add(1)
				c.mHits.Inc()
				tr.Event("cache", "hit")
				return e.res.Clone(), nil
			}
			// Stale: fall through and try to install a fresh flight.
		}

		sh.mu.Lock()
		if cur := sh.load()[key]; cur != e {
			// Another caller already replaced the slot (installed a fresh
			// flight, or a fresh answer landed): re-evaluate from the top.
			sh.mu.Unlock()
			continue
		}
		next := sh.cloneFor()
		delete(next, key) // drop the stale entry, if any
		e = &entry{done: make(chan struct{})}
		next[key] = e
		c.evictInto(next)
		sh.m.Store(&next)
		sh.mu.Unlock()
		break
	}
	c.misses.Add(1)
	c.mMisses.Inc()
	tr.Event("cache", "miss")

	// The entry is already published in the map, but its fields land
	// exactly once before close(done), and every reader waits on done
	// first — the channel close is the happens-before edge.
	e.res, e.err = c.inner.Collect(q)
	e.at = c.cfg.Now()
	close(e.done)
	if e.err != nil || c.cfg.TTL <= 0 {
		// Errors are never cached; without a TTL nothing is retained
		// beyond the flight itself.
		sh.mu.Lock()
		if sh.load()[key] == e {
			next := sh.cloneFor()
			delete(next, key)
			sh.m.Store(&next)
		}
		sh.mu.Unlock()
	}
	if e.err != nil {
		return nil, e.err
	}
	return e.res.Clone(), nil
}

// evictInto enforces the per-shard entry budget on a map being prepared
// for publication: expired entries go first, then the oldest landed
// entries. In-flight entries are never evicted. Callers hold the shard
// mutex.
func (c *Cache) evictInto(m entryMap) {
	if len(m) <= c.perShard {
		return
	}
	now := c.cfg.Now()
	for k, e := range m {
		if e.landed() && c.cfg.TTL > 0 && now.Sub(e.at) >= c.cfg.TTL {
			delete(m, k)
			c.evictions.Add(1)
			c.mEvictions.Inc()
		}
	}
	for len(m) > c.perShard {
		oldestKey := ""
		var oldest time.Time
		for k, e := range m {
			if !e.landed() {
				continue
			}
			if oldestKey == "" || e.at.Before(oldest) {
				oldestKey, oldest = k, e.at
			}
		}
		if oldestKey == "" {
			return // everything in flight; nothing evictable
		}
		delete(m, oldestKey)
		c.evictions.Add(1)
		c.mEvictions.Inc()
	}
}

// Invalidate drops every cached answer whose canonical key starts with
// one of the prefixes, and returns how many slots were dropped. Use
// Key(collector.Query{Hosts: hosts}) to build the prefix for a host set:
// because flag suffixes ("|hist", "|pred") extend the base key, the bare
// key invalidates all flag variants at once. In-flight entries are
// dropped too — waiters already attached still receive the flight's
// answer through their held entry pointer, but the superseded flight is
// not retained when it lands (the fill path only deletes, never
// re-inserts). A key that is itself an extension of the prefix (a
// superset host list sharing the sorted-order prefix) is also dropped;
// over-invalidation costs one re-collection, never a stale answer.
func (c *Cache) Invalidate(prefixes ...string) int {
	dropped := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		cur := sh.load()
		var next entryMap // the shard's map minus the dropped keys, made on the first drop
		for k := range cur {
			for _, p := range prefixes {
				if strings.HasPrefix(k, p) {
					if next == nil {
						next = make(entryMap, len(cur))
						for k2, v2 := range cur {
							next[k2] = v2
						}
					}
					delete(next, k)
					dropped++
					break
				}
			}
		}
		if next != nil {
			published := next // next itself stays on the stack of a shard with nothing to drop
			sh.m.Store(&published)
		}
		sh.mu.Unlock()
	}
	if dropped > 0 {
		c.mInvalidation.Add(int64(dropped))
	}
	return dropped
}

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
	}
}

// Len reports the number of cached entries (including in-flight).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		n += len(c.shards[i].load())
	}
	return n
}
