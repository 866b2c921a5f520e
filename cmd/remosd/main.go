// Command remosd runs a Remos measurement service: a Master Collector
// (with its SNMP, Bridge and Benchmark collectors) served over the ASCII
// TCP protocol and the XML HTTP protocol, ready for remosctl or any
// Modeler to query.
//
// The daemon hosts a demonstration deployment over the in-repository
// network emulator, advanced in step with the wall clock, so collectors
// poll, background traffic flows, and counters move in real time. A
// production build would attach the same collectors to real SNMP agents
// instead (see package snmp's UDP transport and package benchcoll's
// TCPProber).
//
// The command is a thin flag→option translator over the embeddable
// remosd package; everything below is equally settable programmatically
// via remosd.Start.
//
// Usage:
//
//	remosd [-listen :3567] [-http :3568] [-dir :3569] [-hostload :3570]
//	       [-obs :3571] [-slow-query 500ms]
//	       [-scenario twosite|campus] [-qcache-ttl 2s] [-parallelism 0]
//	       [-max-varbinds 24] [-pipeline 4]
//	       [-sched-interval 1s] [-bench-interval 0] [-snapshot-stale 5s]
//	       [-tenant id:key:rate:burst:conc:watches:tier ...]
//	       [-anon-limits rate:burst:conc:watches] [-max-queue-wait 500ms]
//	       [-domains 2 -domain 0 -peer host:port ... -fed-priority 0
//	        -fed-refresh 1s -fed-lease 3s]
//
// The -obs listener exposes the observability plane: /metrics
// (Prometheus text), /healthz (per-collector liveness and last-poll
// age), /debug/queries (recent query traces) and /debug/tenants
// (per-tenant admission state). remosctl stats renders them.
//
// -tenant (repeatable) registers one tenant with the multi-tenant
// admission layer: a shared key, a token-bucket rate and burst, a
// concurrent-query cap, a watch-subscription quota, and a default
// priority tier ("interactive" or "batch"). Empty fields mean
// unlimited (or no key), and trailing fields may be omitted:
//
//	remosd -tenant 'app:sekrit:50:100' -tenant 'crawler::::::batch' \
//	       -anon-limits 5:10 -max-queue-wait 250ms
//
// Identified clients (remos.WithTenant) are metered against their own
// limits; unidentified ones share the -anon-limits pool. Excess load
// is shed with a typed overload error carrying a retry-after hint on
// both wire protocols, never by dropping connections.
//
// -domains N puts the daemon in federated mode: the scenario network
// is partitioned into N administrative domains, this daemon masters
// domain -domain, its directory lease replicates to every -peer (the
// peers' -dir addresses), and both wire servers answer through the
// federation router, which stitches per-domain serving graphs at the
// declared border links — so clients of any daemon get exact
// cross-domain answers. A two-daemon mesh on one machine:
//
//	remosd -domains 2 -domain 0 -listen :3567 -http '' -dir :3569 \
//	       -hostload '' -obs :3571 -peer 127.0.0.1:4569
//	remosd -domains 2 -domain 1 -listen :4567 -http '' -dir :4569 \
//	       -hostload '' -obs :4571 -peer 127.0.0.1:3569
//
// remosctl stats federation (against either -obs) renders the mesh:
// every advertised domain, its masters' lease ages, and the router's
// cache and failover counters.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"remos/remosd"
)

// peerFlags accumulates repeated -peer flags.
type peerFlags struct{ addrs []string }

func (p *peerFlags) String() string { return strings.Join(p.addrs, ",") }

func (p *peerFlags) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty -peer address")
	}
	p.addrs = append(p.addrs, v)
	return nil
}

// tenantFlags accumulates repeated -tenant flags.
type tenantFlags struct{ opts []remosd.Option }

func (t *tenantFlags) String() string { return "" }

func (t *tenantFlags) Set(v string) error {
	id, key, lim, err := parseTenantSpec(v)
	if err != nil {
		return err
	}
	t.opts = append(t.opts, remosd.WithTenant(id, key, lim))
	return nil
}

// parseTenantSpec parses "id:key:rate:burst:conc:watches:tier" with
// trailing fields optional and empty fields meaning unlimited/no key.
func parseTenantSpec(v string) (id, key string, lim remosd.Limits, err error) {
	f := strings.Split(v, ":")
	if f[0] == "" {
		return "", "", lim, fmt.Errorf("tenant spec %q: empty id", v)
	}
	if len(f) > 7 {
		return "", "", lim, fmt.Errorf("tenant spec %q: too many fields", v)
	}
	id = f[0]
	get := func(i int) string {
		if i < len(f) {
			return f[i]
		}
		return ""
	}
	key = get(1)
	num := func(i int, dst *float64) error {
		if s := get(i); s != "" {
			x, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return fmt.Errorf("tenant spec %q: field %d: %v", v, i, err)
			}
			*dst = x
		}
		return nil
	}
	cnt := func(i int, dst *int) error {
		if s := get(i); s != "" {
			x, err := strconv.Atoi(s)
			if err != nil {
				return fmt.Errorf("tenant spec %q: field %d: %v", v, i, err)
			}
			*dst = x
		}
		return nil
	}
	if err := num(2, &lim.Rate); err != nil {
		return "", "", lim, err
	}
	if err := num(3, &lim.Burst); err != nil {
		return "", "", lim, err
	}
	if err := cnt(4, &lim.MaxConcurrent); err != nil {
		return "", "", lim, err
	}
	if err := cnt(5, &lim.MaxWatches); err != nil {
		return "", "", lim, err
	}
	lim.Priority = get(6)
	return id, key, lim, nil
}

// parseAnonSpec parses -anon-limits "rate:burst:conc:watches".
func parseAnonSpec(v string) (remosd.Limits, error) {
	_, _, lim, err := parseTenantSpec("anonymous::" + v)
	return lim, err
}

func main() {
	listen := flag.String("listen", "127.0.0.1:3567", "ASCII protocol listen address")
	httpAddr := flag.String("http", "127.0.0.1:3568", "XML/HTTP protocol listen address ('' disables)")
	dirAddr := flag.String("dir", "127.0.0.1:3569", "directory service listen address ('' disables)")
	loadAddr := flag.String("hostload", "127.0.0.1:3570", "host load collector listen address ('' disables)")
	scenario := flag.String("scenario", "twosite", "demo scenario: twosite or campus")
	qcacheTTL := flag.Duration("qcache-ttl", 2*time.Second,
		"warm-query cache staleness bound; 0 keeps only single-flight dedup of concurrent identical queries")
	parallelism := flag.Int("parallelism", 0,
		"collector pipeline parallelism (master fan-out, device walks, polling); 0 = GOMAXPROCS, 1 = serial")
	maxVarBinds := flag.Int("max-varbinds", 24,
		"varbinds per polling Get PDU; the poller batches a device's interfaces into PDUs of this size")
	pipeline := flag.Int("pipeline", 4,
		"SNMP requests kept outstanding per agent; 1 = classic lock-step exchanges")
	obsAddr := flag.String("obs", "127.0.0.1:3571",
		"observability listen address for /metrics, /healthz, /debug/queries and /debug/tenants ('' disables)")
	slowQuery := flag.Duration("slow-query", 500*time.Millisecond,
		"queries at least this slow are flagged in /debug/queries")
	schedIval := flag.Duration("sched-interval", time.Second,
		"continuous-collection base poll interval (adaptive around this); 0 disables the background scheduler and the watch plane")
	benchIval := flag.Duration("bench-interval", 0,
		"wide-area benchmark round interval (0 = collector default); the WAN hop is benchmark-measured, so this bounds watch-update freshness across sites")
	snapStale := flag.Duration("snapshot-stale", 5*time.Second,
		"staleness bound for answers served from the versioned topology snapshot plane (kept fresh by background polls; zero collector round-trips while fresh); older generations fall back to a coalesced collector walk")
	var tenants tenantFlags
	flag.Var(&tenants, "tenant",
		"register one admission tenant as id:key:rate:burst:conc:watches:tier (repeatable; empty fields unlimited)")
	anonSpec := flag.String("anon-limits", "",
		"admission limits for unidentified connections as rate:burst:conc:watches ('' = unlimited)")
	maxQueueWait := flag.Duration("max-queue-wait", 0,
		"bound on admission queueing before a request is shed (0 = admission default)")
	domains := flag.Int("domains", 0,
		"federated mode: partition the scenario into this many administrative domains (0/1 = single master)")
	domain := flag.Int("domain", 0,
		"federated mode: the domain index this daemon masters, in [0, -domains)")
	var peers peerFlags
	flag.Var(&peers, "peer",
		"peer daemon's directory address for lease replication (repeatable)")
	fedPriority := flag.Int("fed-priority", 0,
		"this master's failover rank among its domain's replicas (lower preferred)")
	fedRefresh := flag.Duration("fed-refresh", 0,
		"federation heartbeat/serving-graph refresh interval (0 = 1s default)")
	fedLease := flag.Duration("fed-lease", 0,
		"federation advert lease lifetime (0 = 3x refresh default)")
	flag.Parse()

	opts := []remosd.Option{
		remosd.WithListen(*listen),
		remosd.WithHTTP(*httpAddr),
		remosd.WithDirectory(*dirAddr),
		remosd.WithHostLoad(*loadAddr),
		remosd.WithObs(*obsAddr),
		remosd.WithScenario(*scenario),
		remosd.WithQueryCacheTTL(*qcacheTTL),
		remosd.WithCollectorTuning(*parallelism, *maxVarBinds, *pipeline),
		remosd.WithSlowQuery(*slowQuery),
		remosd.WithScheduler(*schedIval),
		remosd.WithBenchInterval(*benchIval),
		remosd.WithSnapshotStaleness(*snapStale),
		remosd.WithLogf(log.Printf),
	}
	opts = append(opts, tenants.opts...)
	if *anonSpec != "" {
		lim, err := parseAnonSpec(*anonSpec)
		if err != nil {
			log.Fatalf("remosd: -anon-limits: %v", err)
		}
		opts = append(opts, remosd.WithAnonymousLimits(lim))
	}
	if *maxQueueWait > 0 {
		opts = append(opts, remosd.WithMaxQueueWait(*maxQueueWait))
	}
	if *domains > 1 {
		opts = append(opts,
			remosd.WithFederation(*domains, *domain),
			remosd.WithFederationPriority(*fedPriority),
			remosd.WithFederationLease(*fedRefresh, *fedLease),
		)
		for _, p := range peers.addrs {
			opts = append(opts, remosd.WithFederationPeer(p))
		}
	} else if len(peers.addrs) > 0 || *fedPriority != 0 {
		log.Fatalf("remosd: -peer and -fed-priority need federated mode (-domains >= 2)")
	}

	d, err := remosd.Start(opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("remosd: shutting down")
}
