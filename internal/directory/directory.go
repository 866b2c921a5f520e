// Package directory implements the service-location directory the Master
// Collector uses to find the collectors responsible for each network.
// Section 3.1.4 notes the Master's database "is very similar to the SLP
// directory, and SLP may be used by the Master Collector in the near
// future" — this is that directory: collectors register advertisements
// with a lifetime (as SLP services do), masters look responsibilities up
// per query, and stale registrations age out.
package directory

import (
	"fmt"
	"io"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"time"

	"remos/internal/collector"
	"remos/internal/collector/master"
	"remos/internal/proto"
	"remos/internal/sim"
)

// Advert is one collector's registration.
type Advert struct {
	// Name identifies the registration (re-registering replaces it).
	Name string
	// Prefixes are the networks the collector is responsible for.
	Prefixes []netip.Prefix
	// Collector is the local handle, when the collector runs in this
	// process. Remote collectors leave it nil and set Endpoint.
	Collector collector.Interface
	// Endpoint locates a remote collector: "tcp://host:port" (ASCII
	// protocol) or "http://host:port" (XML protocol).
	Endpoint string
	// BenchHost is the site's benchmark endpoint, used as the join
	// point for inter-site queries.
	BenchHost netip.Addr

	// Domain names the administrative domain a federated master serves;
	// empty for non-federated registrations.
	Domain string
	// Priority orders replica masters for the same domain: lower is
	// preferred, so failover walks surviving adverts in priority order.
	Priority int
	// Epoch is the registrant's current serving-graph epoch, refreshed
	// on every heartbeat re-registration. The federation plane compares
	// it against cached remote answers for domain-scoped invalidation.
	Epoch uint64
	// Seq is the lease sequence number. Local registrations bump it
	// monotonically; replicated adverts apply only when at least as new,
	// so a stale replica can never overwrite a fresher lease
	// (latest-lease-wins).
	Seq uint64
}

type entry struct {
	advert  Advert
	expires time.Time
	// renewed is when the current lease was granted (registration or a
	// replicated newer lease), for lease-age diagnostics.
	renewed time.Time
}

// Service is a directory instance.
type Service struct {
	sched sim.Scheduler

	mu       sync.Mutex
	entries  map[string]entry
	resolved map[resolveKey]collector.Interface
	// view is the current View; every mutation of entries clears it,
	// and the next read rebuilds it.
	view *View
}

// resolveKey names one cached protocol client: an advert at an endpoint.
type resolveKey struct{ name, endpoint string }

// View is one immutable picture of the directory: the unexpired adverts
// with their leases, in the orders the per-query readers walk them. The
// Service builds one per change to the advert set or a lease, and one
// when the clock passes the earliest lease expiry, so a View is never
// staler than the leases; every reader in between gets the same View.
// It is shared: a View and every slice in it are read-only.
type View struct {
	// All is every unexpired advert with its lease, sorted by name.
	All []AdvertStatus
	// Domains are the administrative domains the federated adverts (a
	// non-empty Domain) name, sorted by name.
	Domains []Domain
	// expires is the earliest lease expiry in All.
	expires time.Time
}

// Domain is one administrative domain of a View.
type Domain struct {
	Name string
	// Adverts are the domain's adverts in failover order: lowest
	// Priority first, then by name.
	Adverts []AdvertStatus
}

// fresh reports whether every lease in the view is still live at now.
func (v *View) fresh(now time.Time) bool {
	return len(v.All) == 0 || !v.expires.Before(now)
}

// New creates a directory on the given clock.
func New(sched sim.Scheduler) *Service {
	return &Service{sched: sched, entries: make(map[string]entry)}
}

// DefaultTTL is the advertisement lifetime when Register gets ttl <= 0,
// mirroring SLP's default registration lifetime.
const DefaultTTL = 3 * time.Hour

// Register adds or refreshes an advertisement with the given lifetime.
// The stored lease sequence advances monotonically: a re-registration is
// a fresh lease, so it supersedes both the previous local lease and any
// replicated copy of it still circulating between peers.
func (s *Service) Register(a Advert, ttl time.Duration) error {
	if a.Name == "" {
		return fmt.Errorf("directory: advertisement needs a name")
	}
	if a.Collector == nil && a.Endpoint == "" {
		return fmt.Errorf("directory: advertisement %q has neither a local collector nor an endpoint", a.Name)
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.entries[a.Name]; ok && a.Seq <= prev.advert.Seq {
		a.Seq = prev.advert.Seq + 1
	} else if a.Seq == 0 {
		a.Seq = 1
	}
	now := s.sched.Now()
	s.entries[a.Name] = entry{advert: a, expires: now.Add(ttl), renewed: now}
	s.view = nil
	return nil
}

// ReplicaApply folds a peer-replicated advertisement in under
// latest-lease-wins: a strictly newer sequence replaces the entry, an
// equal sequence can only extend the expiry (anti-entropy re-pushes the
// same lease), and an older sequence is rejected. It reports whether
// the advert was applied.
func (s *Service) ReplicaApply(a Advert, ttl time.Duration) bool {
	if a.Name == "" || (a.Collector == nil && a.Endpoint == "") {
		return false
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.sched.Now()
	expires := now.Add(ttl)
	prev, ok := s.entries[a.Name]
	if ok && !prev.expires.Before(now) {
		if a.Seq < prev.advert.Seq {
			return false
		}
		if a.Seq == prev.advert.Seq {
			if expires.After(prev.expires) {
				prev.expires = expires
				s.entries[a.Name] = prev
				s.view = nil
			}
			return true
		}
	}
	s.entries[a.Name] = entry{advert: a, expires: expires, renewed: now}
	s.view = nil
	return true
}

// Deregister removes an advertisement.
func (s *Service) Deregister(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, name)
	s.view = nil
}

// View returns the directory's current View, rebuilding it first when
// an advert or lease has changed since the last one was built or a lease
// in it has lapsed. A rebuild purges the expired entries and retires the
// protocol clients cached for adverts that are gone or have moved
// endpoint, closing each once no lock is held.
func (s *Service) View() *View {
	now := s.sched.Now()
	s.mu.Lock()
	v := s.view
	var retired []collector.Interface
	if v == nil || !v.fresh(now) {
		v, retired = s.rebuild(now)
		s.view = v
	}
	s.mu.Unlock()
	for _, c := range retired {
		if c, ok := c.(io.Closer); ok {
			c.Close()
		}
	}
	return v
}

// rebuild builds the View at now from the entries, purging the expired
// ones, and drops every cached client whose advert is gone or names
// another endpoint, returning those for the caller to close. s.mu must
// be held.
func (s *Service) rebuild(now time.Time) (*View, []collector.Interface) {
	v := &View{}
	var federated []AdvertStatus
	for name, e := range s.entries {
		if e.expires.Before(now) {
			delete(s.entries, name)
			continue
		}
		st := AdvertStatus{Advert: e.advert, Expires: e.expires, Renewed: e.renewed}
		v.All = append(v.All, st)
		if st.Domain != "" {
			federated = append(federated, st)
		}
		if len(v.All) == 1 || e.expires.Before(v.expires) {
			v.expires = e.expires
		}
	}
	sort.Slice(v.All, func(i, j int) bool { return v.All[i].Name < v.All[j].Name })
	sort.Slice(federated, func(i, j int) bool {
		a, b := &federated[i], &federated[j]
		if a.Domain != b.Domain {
			return a.Domain < b.Domain
		}
		if a.Priority != b.Priority {
			return a.Priority < b.Priority
		}
		return a.Name < b.Name
	})
	for lo := 0; lo < len(federated); {
		hi := lo + 1
		for hi < len(federated) && federated[hi].Domain == federated[lo].Domain {
			hi++
		}
		v.Domains = append(v.Domains, Domain{Name: federated[lo].Domain, Adverts: federated[lo:hi:hi]})
		lo = hi
	}

	var retired []collector.Interface
	for k, c := range s.resolved {
		if e, ok := s.entries[k.name]; !ok || e.advert.Endpoint != k.endpoint {
			delete(s.resolved, k)
			retired = append(retired, c)
		}
	}
	return v, retired
}

// Adverts returns the unexpired advertisements, sorted by name, in a
// slice the caller owns.
func (s *Service) Adverts() []Advert {
	all := s.View().All
	if len(all) == 0 {
		return nil
	}
	out := make([]Advert, len(all))
	for i := range all {
		out[i] = all[i].Advert
	}
	return out
}

// AdvertStatus is one advertisement with its lease expiry, for
// diagnostics (remosctl stats federation renders lease ages from it).
type AdvertStatus struct {
	Advert
	Expires time.Time
	// Renewed is when the current lease was granted.
	Renewed time.Time
}

// Status returns the unexpired advertisements with their lease
// expiries, sorted by name, in a slice the caller owns.
func (s *Service) Status() []AdvertStatus {
	return slices.Clone(s.View().All)
}

// Now exposes the directory's clock, so callers rendering Status can
// compute lease ages against the same time base.
func (s *Service) Now() time.Time { return s.sched.Now() }

// Entries implements master.Directory: the current advertisements as
// master entries, with remote endpoints resolved to protocol clients.
func (s *Service) Entries() ([]master.Entry, error) {
	all := s.View().All
	out := make([]master.Entry, 0, len(all))
	for _, st := range all {
		a := st.Advert
		c, err := s.Resolve(a)
		if err != nil {
			return nil, fmt.Errorf("directory: advert %q: %w", a.Name, err)
		}
		out = append(out, master.Entry{
			Name:      a.Name,
			Prefixes:  a.Prefixes,
			Collector: c,
			BenchHost: a.BenchHost,
		})
	}
	return out, nil
}

// Resolve turns an advertisement into a usable collector: the local
// handle when present, otherwise a protocol client for the endpoint,
// cached per name and endpoint so connections persist across queries.
// The cache keeps a client until a View rebuild finds its advert gone or
// re-registered at another endpoint, and then closes it.
func (s *Service) Resolve(a Advert) (collector.Interface, error) {
	if a.Collector != nil {
		return a.Collector, nil
	}
	key := resolveKey{a.Name, a.Endpoint}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.resolved[key]; ok {
		return c, nil
	}
	c, err := proto.NewClient(a.Endpoint, proto.Identity{})
	if err != nil {
		return nil, err
	}
	if s.resolved == nil {
		s.resolved = make(map[resolveKey]collector.Interface)
	}
	s.resolved[key] = c
	return c, nil
}

// Close closes every protocol client Resolve has cached. The directory
// stays usable: a later Resolve dials anew.
func (s *Service) Close() {
	s.mu.Lock()
	resolved := s.resolved
	s.resolved = nil
	s.mu.Unlock()
	for _, c := range resolved {
		if c, ok := c.(io.Closer); ok {
			c.Close()
		}
	}
}
