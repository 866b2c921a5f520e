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
	"net/netip"
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
	// Epoch is the registrant's current snapshot generation, refreshed
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
	resolved map[string]collector.Interface
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
			}
			return true
		}
	}
	s.entries[a.Name] = entry{advert: a, expires: expires, renewed: now}
	return true
}

// Deregister removes an advertisement.
func (s *Service) Deregister(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, name)
}

// Adverts returns the unexpired advertisements, sorted by name. Expired
// entries are purged as a side effect.
func (s *Service) Adverts() []Advert {
	now := s.sched.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Advert
	for name, e := range s.entries {
		if e.expires.Before(now) {
			delete(s.entries, name)
			continue
		}
		out = append(out, e.advert)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup returns the advertisement responsible for the address by
// longest-prefix match.
func (s *Service) Lookup(h netip.Addr) (Advert, bool) {
	all := s.LookupAll(h)
	if len(all) == 0 {
		return Advert{}, false
	}
	return all[0], true
}

// LookupAll returns every unexpired advertisement with a prefix
// containing the address, best first: longest matching prefix, then
// lowest Priority, then name. The federation router walks this list for
// failover — when the preferred master's lease has lapsed (its advert
// is gone), the next surviving replica answers.
func (s *Service) LookupAll(h netip.Addr) []Advert {
	type match struct {
		a    Advert
		bits int
	}
	var ms []match
	for _, a := range s.Adverts() {
		best := -1
		for _, p := range a.Prefixes {
			if p.Contains(h) && p.Bits() > best {
				best = p.Bits()
			}
		}
		if best >= 0 {
			ms = append(ms, match{a: a, bits: best})
		}
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].bits != ms[j].bits {
			return ms[i].bits > ms[j].bits
		}
		if ms[i].a.Priority != ms[j].a.Priority {
			return ms[i].a.Priority < ms[j].a.Priority
		}
		return ms[i].a.Name < ms[j].a.Name
	})
	out := make([]Advert, len(ms))
	for i, m := range ms {
		out[i] = m.a
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
// expiries, sorted by name.
func (s *Service) Status() []AdvertStatus {
	now := s.sched.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []AdvertStatus
	for name, e := range s.entries {
		if e.expires.Before(now) {
			delete(s.entries, name)
			continue
		}
		out = append(out, AdvertStatus{Advert: e.advert, Expires: e.expires, Renewed: e.renewed})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Now exposes the directory's clock, so callers rendering Status can
// compute lease ages against the same time base.
func (s *Service) Now() time.Time { return s.sched.Now() }

// clientFor builds a protocol client for an advertised endpoint.
func clientFor(endpoint string) (collector.Interface, error) {
	switch {
	case len(endpoint) > 6 && endpoint[:6] == "tcp://":
		return &proto.TCPClient{Addr: endpoint[6:]}, nil
	case len(endpoint) > 7 && endpoint[:7] == "http://":
		return &proto.HTTPClient{BaseURL: endpoint}, nil
	}
	return nil, fmt.Errorf("directory: cannot resolve endpoint %q", endpoint)
}

// Entries implements master.Directory: the current advertisements as
// master entries, with remote endpoints resolved to protocol clients.
func (s *Service) Entries() ([]master.Entry, error) {
	adverts := s.Adverts()
	out := make([]master.Entry, 0, len(adverts))
	for _, a := range adverts {
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
func (s *Service) Resolve(a Advert) (collector.Interface, error) {
	if a.Collector != nil {
		return a.Collector, nil
	}
	key := a.Name + "|" + a.Endpoint
	s.mu.Lock()
	if s.resolved == nil {
		s.resolved = make(map[string]collector.Interface)
	}
	if c, ok := s.resolved[key]; ok {
		s.mu.Unlock()
		return c, nil
	}
	s.mu.Unlock()
	c, err := clientFor(a.Endpoint)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.resolved[key] = c
	s.mu.Unlock()
	return c, nil
}
