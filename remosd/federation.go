package remosd

import (
	"fmt"
	"net/http"
	"time"

	"remos/internal/directory"
	"remos/internal/federation"
	"remos/internal/netsim"
	"remos/internal/obs"
	"remos/internal/topology"
)

// federated assembles the federated-mode stack: the scenario
// fabric is partitioned into cfg.Domains administrative domains, this
// daemon runs the master for domain cfg.Domain (its lease heartbeats
// into the local directory replica and replicates to every -peer), and
// both wire servers answer through the federation router — so any
// daemon in the mesh serves intra- and cross-domain queries alike,
// stitching the per-domain serving graphs at the declared border links.
//
// Every daemon builds the same deterministic fabric (no background
// traffic runs in federated mode), so the partition — and therefore
// the stitched answer — is identical mesh-wide: a cross-domain FLOWS
// query returns byte-for-byte what a single master walking the whole
// network would.
func (cfg Config) federated(d *Daemon, logf func(format string, args ...any), st *stack) error {
	if cfg.Domain < 0 || cfg.Domain >= cfg.Domains {
		return fmt.Errorf("remosd: federated domain index %d out of range [0,%d)", cfg.Domain, cfg.Domains)
	}
	s, reg := st.sim, st.reg
	sn, err := buildNetwork(s, cfg.Scenario)
	if err != nil {
		return fmt.Errorf("remosd: %w", err)
	}
	part, err := netsim.PartitionDomains(sn.n, cfg.Domains)
	if err != nil {
		return fmt.Errorf("remosd: %w", err)
	}
	for _, h := range sn.hosts {
		d.Hosts = append(d.Hosts, HostInfo{Name: h.Name, Addr: h.Addr()})
	}

	// The directory replica: peers replicate their leases in here, and
	// this daemon's leases replicate out to every -peer. Push-only
	// anti-entropy over a full mesh converges every replica on the
	// union of live leases.
	dir := directory.New(s)
	d.onClose(dir.Close) // the router's clients of peer masters
	router, err := federation.NewRouter(federation.RouterConfig{
		Directory:   dir,
		Obs:         reg,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return fmt.Errorf("remosd: %w", err)
	}
	if len(cfg.FedPeers) > 0 {
		if cfg.ListenDirectory == "" {
			logf("remosd: warning: -peer set but the directory listener is disabled; peers cannot replicate in")
		}
		ival := cfg.FedRefresh
		if ival <= 0 {
			ival = time.Second
		}
		rep := directory.StartReplicator(directory.ReplicatorConfig{
			Service:  dir,
			Peers:    cfg.FedPeers,
			Sched:    s,
			Interval: ival,
			Obs:      reg,
			Logf:     logf,
		})
		d.onClose(rep.Close)
		logf("remosd: replicating leases to %d peer(s) every %v", len(cfg.FedPeers), ival)
	}

	domainName := fmt.Sprintf("d%d", cfg.Domain)
	var master *federation.DomainServer
	// The domain master registers once the ASCII server is listening: the
	// advert carries that server's bound address as its endpoint, so
	// peers' routers fetch this domain's serving graph over the wire with
	// the empty query. The advert also carries the local collector
	// handle, so this daemon's own router never dials itself.
	startMaster := func(asciiAddr string) error {
		var err error
		master, err = federation.StartDomain(federation.DomainConfig{
			Name:      fmt.Sprintf("%s-p%d", domainName, cfg.FedPriority),
			Domain:    domainName,
			Priority:  cfg.FedPriority,
			Endpoint:  "tcp://" + asciiAddr,
			Graph:     func() (*topology.Graph, error) { return part.ServingGraph(cfg.Domain) },
			Prefixes:  part.HostPrefixes(cfg.Domain),
			Directory: dir,
			Sched:     s,
			Obs:       reg,
			Refresh:   cfg.FedRefresh,
			LeaseTTL:  cfg.FedLeaseTTL,
		})
		if err != nil {
			return fmt.Errorf("remosd: %w", err)
		}
		d.onClose(master.Close)
		d.FedDomain = domainName
		logf("remosd: federated master for domain %s (%d/%d, priority %d, %d hosts, %d prefixes); both wire servers answer through the federation router",
			domainName, cfg.Domain, cfg.Domains, cfg.FedPriority,
			len(part.DomainHosts(cfg.Domain)), len(part.HostPrefixes(cfg.Domain)))
		return nil
	}

	st.collector, st.flows, st.dir, st.bound = router, router, dir, startMaster
	st.health = func() []obs.ComponentHealth { return fedHealth(domainName, master, dir) }
	st.debug = map[string]http.Handler{"/debug/federation": router.DebugHandler()}
	return nil
}

// fedHealth reports the federated planes' liveness: the domain master
// is healthy once it has a serving graph, and the directory replica is
// healthy while it holds an unexpired lease for every advertised
// domain it has seen.
func fedHealth(domain string, master *federation.DomainServer, dir *directory.Service) []obs.ComponentHealth {
	m := obs.ComponentHealth{Component: "federation-master-" + domain}
	if master.Epoch() > 0 {
		m.Healthy = true
	} else {
		m.Detail = "no serving graph yet"
	}
	domains := make(map[string]bool)
	for _, a := range dir.Adverts() {
		if a.Domain != "" {
			domains[a.Domain] = true
		}
	}
	r := obs.ComponentHealth{
		Component: "federation-directory",
		Healthy:   len(domains) > 0,
		Detail:    fmt.Sprintf("%d domain(s) advertised", len(domains)),
	}
	return []obs.ComponentHealth{m, r}
}
