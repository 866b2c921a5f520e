// Package federation is the multi-master collector mesh: each
// administrative domain runs its own master (a DomainServer) that
// publishes one whole serving graph per epoch, masters advertise their
// responsibility into a replicated directory (internal/directory grows
// leases, peer replication, and priority-ordered failover for this), and
// a Router on any daemon fetches every domain's graph over the existing
// wire protocols and stitches them at their declared border links into
// one graph. Topology (QUERY) and flow (FLOWS) queries both read that
// stitched graph, so the two verbs always describe the same network.
//
// The stitched answer is exact, not approximate: a partition's serving
// graphs (domain interior plus incident border links, see
// netsim.PartitionDomains) merge back into the original topology
// byte-for-byte, and topology adjacency is canonical — insensitive to
// link insertion order — so per-flow max-min allocations computed on the
// stitched graph equal a single master's whole-graph walk exactly. The
// partition property tests pin the reconstruction; the federation tests
// pin the end-to-end equality.
//
// Liveness rides on directory leases. A master heartbeats its advert
// (carrying its current serving-graph epoch) at a fraction of the lease TTL
// and the directory replicates it to every peer under latest-lease-wins.
// When a master dies its lease lapses, the advert vanishes from every
// replica, and the Router fails over to the domain's next surviving
// advert in priority order — applications see a slower answer, never a
// non-typed error. Remote answers are cached per domain and invalidated
// when the owning master's advertised epoch moves on, so a repeated
// cross-domain query costs zero round-trips between epoch changes.
package federation

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"remos/internal/collector"
	"remos/internal/directory"
	"remos/internal/obs"
	"remos/internal/rerr"
	"remos/internal/sim"
	"remos/internal/topology"
)

// DomainConfig wires one domain master.
type DomainConfig struct {
	// Name is the advert name, unique across the mesh (e.g. "east-a"
	// for domain east's primary, "east-b" for its standby). Required.
	Name string
	// Domain names the administrative domain this master serves.
	// Replicas of the same domain share it. Required.
	Domain string
	// Priority orders this master among the domain's replicas: lower is
	// preferred, so routers fail over in priority order.
	Priority int
	// Endpoint is how peers reach this master ("tcp://host:port" or
	// "http://host:port"). Empty registers a local-only master.
	Endpoint string
	// Graph supplies the domain's current serving graph — interior
	// links plus incident border links (Partition.ServingGraph), with
	// live utilizations. Called on every refresh; the graph it returns
	// is served as is, so the source must not modify it afterwards.
	// Required.
	Graph func() (*topology.Graph, error)
	// Hosts is read by nothing: a domain publishes its whole serving
	// graph each epoch, so no per-host freshness is kept. It goes with
	// the next amendment of the federation benchmark rig, which sets it.
	Hosts []netip.Addr
	// Prefixes are the subnets this master advertises responsibility
	// for (Partition.HostPrefixes). Required.
	Prefixes []netip.Prefix
	// Directory is the local replicated directory the advert heartbeats
	// into. Required.
	Directory *directory.Service
	// Sched supplies the clock and the refresh timer. Required.
	Sched sim.Scheduler
	// Obs, when set, receives the remos_federation_* domain metrics.
	Obs *obs.Registry
	// Refresh is the serving-graph refresh (and heartbeat) interval;
	// each refresh advances the domain's epoch. Default 1s.
	Refresh time.Duration
	// LeaseTTL is the advert lease lifetime; default 3×Refresh. The
	// heartbeat runs at min(Refresh, LeaseTTL/3), so a healthy master
	// always renews well inside its lease.
	LeaseTTL time.Duration
}

// DomainServer is one domain's master: on a timer it publishes the
// serving graph its source returns as the next epoch, whole — a link the
// domain lost leaves with that epoch — serves the latest one through its
// collector, and heartbeats the directory lease with that epoch on the
// advert.
type DomainServer struct {
	cfg    DomainConfig
	latest atomic.Pointer[served]
	timer  *sim.Timer

	gEpoch      *obs.Gauge
	mRefreshes  *obs.Counter
	mRefreshErr *obs.Counter
}

// StartDomain validates the config, performs the first refresh
// synchronously (so the collector can answer immediately), and starts
// the heartbeat.
func StartDomain(cfg DomainConfig) (*DomainServer, error) {
	switch {
	case cfg.Name == "":
		return nil, fmt.Errorf("federation: domain master needs a name")
	case cfg.Domain == "":
		return nil, fmt.Errorf("federation: master %q needs a domain", cfg.Name)
	case cfg.Graph == nil:
		return nil, fmt.Errorf("federation: master %q needs a graph source", cfg.Name)
	case len(cfg.Prefixes) == 0:
		return nil, fmt.Errorf("federation: master %q advertises no prefixes", cfg.Name)
	case cfg.Directory == nil || cfg.Sched == nil:
		return nil, fmt.Errorf("federation: master %q needs a directory and a scheduler", cfg.Name)
	}
	if cfg.Refresh <= 0 {
		cfg.Refresh = time.Second
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * cfg.Refresh
	}
	d := &DomainServer{cfg: cfg}
	d.gEpoch = cfg.Obs.Gauge("remos_federation_domain_epoch",
		"domain master's current serving-graph epoch", "domain", cfg.Domain, "advert", cfg.Name)
	d.mRefreshes = cfg.Obs.Counter("remos_federation_refreshes_total",
		"domain serving-graph refreshes", "domain", cfg.Domain)
	d.mRefreshErr = cfg.Obs.Counter("remos_federation_refresh_errors_total",
		"domain serving-graph refreshes that failed", "domain", cfg.Domain)
	if err := d.refresh(); err != nil {
		return nil, err
	}
	heartbeat := cfg.Refresh
	if cfg.LeaseTTL/3 < heartbeat {
		heartbeat = cfg.LeaseTTL / 3
	}
	d.timer = cfg.Sched.Every(heartbeat, func() { d.refresh() })
	return d, nil
}

// served is one published epoch: the serving graph, never mutated
// after it is stored.
type served struct {
	graph *topology.Graph
	epoch uint64
}

// refresh publishes the current serving graph as the next epoch and
// renews the directory lease with that epoch on the advert. Only the
// heartbeat timer calls it after StartDomain, so epochs never race.
func (d *DomainServer) refresh() error {
	g, err := d.cfg.Graph()
	if err != nil {
		d.mRefreshErr.Inc()
		return fmt.Errorf("federation: master %q: serving graph: %w", d.cfg.Name, err)
	}
	d.mRefreshes.Inc()
	epoch := d.Epoch() + 1
	d.latest.Store(&served{graph: g, epoch: epoch})
	d.gEpoch.Set(float64(epoch))
	return d.cfg.Directory.Register(directory.Advert{
		Name:      d.cfg.Name,
		Prefixes:  d.cfg.Prefixes,
		Collector: d.Collector(),
		Endpoint:  d.cfg.Endpoint,
		Domain:    d.cfg.Domain,
		Priority:  d.cfg.Priority,
		Epoch:     epoch,
	}, d.cfg.LeaseTTL)
}

// Epoch returns the domain's current serving-graph epoch, 0 before the
// first refresh.
func (d *DomainServer) Epoch() uint64 {
	if s := d.latest.Load(); s != nil {
		return s.epoch
	}
	return 0
}

// Collector returns the collector serving this domain. It answers every
// query — including the empty query peers use to fetch a whole domain —
// with the full current serving graph; domain graphs are small, and the
// border links must always be present for stitching.
func (d *DomainServer) Collector() collector.Interface {
	return domainCollector{d}
}

// Close stops the heartbeat and withdraws the advert immediately, so
// routers fail over without waiting out the lease. A crashed master
// never gets to do this — that path is the lease-expiry failover the
// federation tests and bench exercise via Kill.
func (d *DomainServer) Close() {
	d.timer.Stop()
	d.cfg.Directory.Deregister(d.cfg.Name)
}

// Kill simulates a crash: the heartbeat stops but the advert is left to
// lapse, exactly as when a master's machine dies.
func (d *DomainServer) Kill() {
	d.timer.Stop()
}

type domainCollector struct {
	d *DomainServer
}

func (c domainCollector) Name() string { return "federation-" + c.d.cfg.Name }

func (c domainCollector) Collect(q collector.Query) (*collector.Result, error) {
	if err := q.Context().Err(); err != nil {
		return nil, err
	}
	s := c.d.latest.Load()
	if s == nil {
		return nil, rerr.Tagf(rerr.ErrCollectorUnavailable,
			"federation: master %q has no serving graph yet", c.d.cfg.Name)
	}
	// Cloned: the caller may merge or annotate the result, the published
	// graph is immutable.
	return &collector.Result{Graph: s.graph.Clone()}, nil
}
