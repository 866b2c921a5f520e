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
// The command is a thin flag→Config translator over the embeddable
// remosd package: each flag sets one remosd.Config field and defaults to
// that field's remosd.DefaultConfig value, and every field but Logf has
// its flag, so everything below is equally settable programmatically
// through remosd.Config.
//
// Usage:
//
//	remosd [-listen :3567] [-http :3568] [-dir :3569] [-hostload :3570]
//	       [-obs :3571]
//	       [-scenario twosite|campus] [-max-stale 2s] [-parallelism 0]
//	       [-sched-interval 1s] [-bench-interval 0]
//	       [-tenant id:key:rate:burst:conc:watches:tier ...]
//	       [-anon-limits rate:burst:conc:watches] [-max-queue-wait 500ms]
//	       [-domains 2 -domain 0 -peer host:port ... -fed-priority 0
//	        -fed-refresh 1s -fed-lease 3s]
//
// -max-stale is the one staleness bound: a QUERY or a FLOWS answered
// from the snapshot plane is never older, and the background scheduler
// re-polls a covered pair at least that often.
//
// The -obs listener exposes the observability plane: /metrics
// (Prometheus text, the process's runtime gauges included), /healthz
// (per-collector liveness and last-poll age), /debug/queries (recent
// query traces, those of half a second or more flagged slow) and
// /debug/tenants (per-tenant admission state).
// remosctl stats renders them.
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
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"remos/internal/admission"
	"remos/remosd"
)

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
	tier, ok := admission.ParseTier(get(6))
	if !ok {
		return "", "", lim, fmt.Errorf("tenant spec %q: unknown priority tier %q", v, get(6))
	}
	lim.Tier = tier
	return id, key, lim, nil
}

// parseAnonSpec parses -anon-limits "rate:burst:conc:watches".
func parseAnonSpec(v string) (remosd.Limits, error) {
	_, _, lim, err := parseTenantSpec("anonymous::" + v)
	return lim, err
}

// bindFlags defines every flag on a new FlagSet, each bound to its
// field of cfg with the field's current value as its default.
func bindFlags(cfg *remosd.Config) *flag.FlagSet {
	fs := flag.NewFlagSet("remosd", flag.ContinueOnError)
	fs.StringVar(&cfg.ListenASCII, "listen", cfg.ListenASCII, "ASCII protocol listen address")
	fs.StringVar(&cfg.ListenHTTP, "http", cfg.ListenHTTP, "XML/HTTP protocol listen address ('' disables)")
	fs.StringVar(&cfg.ListenDirectory, "dir", cfg.ListenDirectory, "directory service listen address ('' disables)")
	fs.StringVar(&cfg.ListenHostLoad, "hostload", cfg.ListenHostLoad, "host load collector listen address ('' disables)")
	fs.StringVar(&cfg.Scenario, "scenario", cfg.Scenario, "demo scenario: twosite or campus")
	fs.DurationVar(&cfg.MaxStale, "max-stale", cfg.MaxStale,
		"staleness bound (> 0) for answers from the snapshot plane; the background scheduler re-polls covered pairs within it")
	fs.IntVar(&cfg.Parallelism, "parallelism", cfg.Parallelism,
		"collector pipeline parallelism (master fan-out, device walks, polling); 0 = GOMAXPROCS, 1 = serial")
	fs.StringVar(&cfg.ListenObs, "obs", cfg.ListenObs,
		"observability listen address for /metrics, /healthz, /debug/queries and /debug/tenants ('' disables)")
	fs.DurationVar(&cfg.SchedInterval, "sched-interval", cfg.SchedInterval,
		"continuous-collection base poll interval (> 0; adaptive around this)")
	fs.DurationVar(&cfg.BenchInterval, "bench-interval", cfg.BenchInterval,
		"wide-area benchmark round interval (0 = collector default); the WAN hop is benchmark-measured, so this bounds watch-update freshness across sites")
	fs.Func("tenant",
		"register one admission tenant as id:key:rate:burst:conc:watches:tier (repeatable; empty fields unlimited)",
		func(v string) error {
			id, key, lim, err := parseTenantSpec(v)
			if err != nil {
				return err
			}
			if cfg.Tenants == nil {
				cfg.Tenants = map[string]remosd.Tenant{}
			}
			cfg.Tenants[id] = remosd.Tenant{Key: key, Limits: lim}
			return nil
		})
	fs.Func("anon-limits",
		"admission limits for unidentified connections as rate:burst:conc:watches (unset = unlimited)",
		func(v string) error {
			lim, err := parseAnonSpec(v)
			if err != nil {
				return err
			}
			cfg.Anonymous = &lim
			return nil
		})
	fs.DurationVar(&cfg.MaxQueueWait, "max-queue-wait", cfg.MaxQueueWait,
		"bound on admission queueing before a request is shed (0 = admission default)")
	fs.IntVar(&cfg.Domains, "domains", cfg.Domains,
		"federated mode: partition the scenario into this many administrative domains (0/1 = single master)")
	fs.IntVar(&cfg.Domain, "domain", cfg.Domain,
		"federated mode: the domain index this daemon masters, in [0, -domains)")
	fs.Func("peer", "peer daemon's directory address for lease replication (repeatable)", func(v string) error {
		if v == "" {
			return fmt.Errorf("empty -peer address")
		}
		cfg.FedPeers = append(cfg.FedPeers, v)
		return nil
	})
	fs.IntVar(&cfg.FedPriority, "fed-priority", cfg.FedPriority,
		"this master's failover rank among its domain's replicas (lower preferred)")
	fs.DurationVar(&cfg.FedRefresh, "fed-refresh", cfg.FedRefresh,
		"federation heartbeat/serving-graph refresh interval (0 = 1s default)")
	fs.DurationVar(&cfg.FedLeaseTTL, "fed-lease", cfg.FedLeaseTTL,
		"federation advert lease lifetime (0 = 3x refresh default)")
	return fs
}

// parseFlags reads a command line into a Config. Each flag's default is
// the field's DefaultConfig value, so an empty command line is exactly
// DefaultConfig.
func parseFlags(args []string) (remosd.Config, error) {
	cfg := remosd.DefaultConfig()
	if err := bindFlags(&cfg).Parse(args); err != nil {
		return cfg, err
	}
	if cfg.Domains <= 1 && (len(cfg.FedPeers) > 0 || cfg.FedPriority != 0) {
		return cfg, fmt.Errorf("-peer and -fed-priority need federated mode (-domains >= 2)")
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		log.Fatalf("remosd: %v", err)
	}
	cfg.Logf = log.Printf
	d, err := cfg.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("remosd: shutting down")
}
