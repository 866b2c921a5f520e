// Package master implements the Remos Master Collector (Section 3.1.4):
// it keeps a directory of collectors and the network prefixes each is
// responsible for, splits an application query into per-site sub-queries
// plus a wide-area benchmark query, fans them out, and coalesces the
// responses into one topology "without revealing that the response was
// obtained from multiple collectors". A Master is itself a collector, so
// masters compose hierarchically — a remote collector may be another
// Master.
//
// The fan-out is concurrent: per-site sub-queries and the wide-area
// benchmark query run in parallel under a bounded worker pool
// (Config.Parallelism), and the responses are merged in sorted site order
// so the coalesced answer is byte-identical to the serial path no matter
// which sub-query lands first.
package master

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"

	"remos/internal/collector"
	"remos/internal/conc"
	"remos/internal/obs"
	"remos/internal/rerr"
)

// Entry is one directory row: a collector and its responsibility. The
// directory plays the role the paper assigns to an SLP-like service.
type Entry struct {
	// Name identifies the site.
	Name string
	// Prefixes are the networks this collector is responsible for.
	Prefixes []netip.Prefix
	// Collector answers queries about those networks (an SNMP
	// collector, or a remote Master reached through the protocol).
	Collector collector.Interface
	// BenchHost is the site's benchmark endpoint, included in sub-
	// queries so inter-site answers join up with intra-site topology.
	BenchHost netip.Addr
}

// Directory supplies the master's entries — the SLP-style lookup of
// Section 3.1.4. Every query consults it, so collectors registering or
// expiring take effect without reconfiguration. Implemented by
// *directory.Service.
type Directory interface {
	// Entries returns the current directory contents.
	Entries() ([]Entry, error)
}

// Config configures a Master Collector.
type Config struct {
	Name string
	// Directory resolves each query's hosts to their collectors. Required.
	Directory Directory
	// WideArea answers queries between sites — normally the local
	// Benchmark Collector. Optional for single-site deployments.
	WideArea collector.Interface
	// Parallelism bounds how many sub-queries (per-site plus wide-area)
	// run concurrently during fan-out. 0 selects GOMAXPROCS; 1 restores
	// the fully serial path. The merged result is identical either way.
	Parallelism int
	// Obs, when set, receives fan-out metrics. Nil disables.
	Obs *obs.Registry
}

// Master is a Master Collector.
type Master struct {
	cfg Config

	mQueries    *obs.Counter
	mSubQueries *obs.Counter
	mErrors     *obs.Counter
}

// New builds a Master Collector.
func New(cfg Config) *Master {
	m := &Master{cfg: cfg}
	m.mQueries = cfg.Obs.Counter("remos_master_queries_total",
		"queries answered by the master collector")
	m.mSubQueries = cfg.Obs.Counter("remos_master_subqueries_total",
		"sub-queries fanned out to site and wide-area collectors")
	m.mErrors = cfg.Obs.Counter("remos_master_errors_total",
		"master queries that failed")
	return m
}

// Name implements collector.Interface.
func (m *Master) Name() string {
	if m.cfg.Name != "" {
		return m.cfg.Name
	}
	return "master"
}

// entryFor finds the directory entry responsible for an address.
func entryFor(entries []Entry, h netip.Addr) (*Entry, bool) {
	best := -1
	var found *Entry
	for i := range entries {
		e := &entries[i]
		for _, p := range e.Prefixes {
			if p.Contains(h) && p.Bits() > best {
				best = p.Bits()
				found = e
			}
		}
	}
	return found, found != nil
}

// Collect implements collector.Interface. It is safe for concurrent
// callers; each call fans its sub-queries out in parallel (bounded by
// Config.Parallelism) and merges the responses in sorted site order
// followed by the wide-area answer, so the coalesced graph does not
// depend on sub-query completion order.
func (m *Master) Collect(q collector.Query) (res *collector.Result, err error) {
	ctx := q.Context()
	tr := obs.FromContext(ctx)
	if len(q.Hosts) == 0 {
		return nil, fmt.Errorf("master: empty query")
	}
	m.mQueries.Inc()
	defer func() {
		if err != nil {
			m.mErrors.Inc()
		}
	}()

	// "The first task for the Master Collector is identifying the IP
	// networks and subnets needed to answer the query, along with the
	// associated collectors."
	all, err := m.cfg.Directory.Entries()
	if err != nil {
		return nil, fmt.Errorf("master: directory lookup: %w", err)
	}
	// One site per responsible entry name, hosts in first-seen order. A
	// query meets few sites and names tens of hosts, so both are found by
	// scanning: no set is made per site.
	type site struct {
		e     *Entry
		hosts []netip.Addr
	}
	var siteBuf [4]site
	sites := siteBuf[:0]
	for _, h := range q.Hosts {
		e, ok := entryFor(all, h)
		if !ok {
			return nil, rerr.Tagf(rerr.ErrUnknownHost, "master: no collector is responsible for %v", h)
		}
		i := slices.IndexFunc(sites, func(s site) bool { return s.e.Name == e.Name })
		if i < 0 {
			// Sized for the usual case, every host at one site (and the
			// site's benchmark endpoint joining the list below).
			i = len(sites)
			sites = append(sites, site{e: e, hosts: make([]netip.Addr, 0, len(q.Hosts)+1)})
		}
		if s := &sites[i]; !slices.Contains(s.hosts, h) {
			s.hosts = append(s.hosts, h)
		}
	}
	slices.SortFunc(sites, func(a, b site) int { return strings.Compare(a.e.Name, b.e.Name) })

	multiSite := len(sites) > 1

	// Build the sub-query list: one per site in sorted order, plus (for
	// multi-site queries) the wide-area benchmark query in the final
	// slot. Everything fans out together; the slot index fixes the merge
	// order afterwards.
	type subQuery struct {
		coll  collector.Interface
		hosts []netip.Addr
		label string // names the sub-query in errors; "" for a site's, formatted when needed
	}
	subs := make([]subQuery, 0, len(sites)+1)
	for _, s := range sites {
		hosts := s.hosts
		if multiSite && s.e.BenchHost.IsValid() && !slices.Contains(hosts, s.e.BenchHost) {
			// Join point: the site's benchmark endpoint.
			hosts = append(hosts, s.e.BenchHost)
		}
		subs = append(subs, subQuery{coll: s.e.Collector, hosts: hosts})
	}
	if multiSite {
		if m.cfg.WideArea == nil {
			return nil, fmt.Errorf("master: query spans %d sites but no wide-area collector is configured", len(sites))
		}
		var benchHosts []netip.Addr
		for _, s := range sites {
			if s.e.BenchHost.IsValid() {
				benchHosts = append(benchHosts, s.e.BenchHost)
			}
		}
		subs = append(subs, subQuery{coll: m.cfg.WideArea, hosts: benchHosts, label: "wide-area collector"})
	}
	label := func(s subQuery) string {
		if s.label != "" {
			return s.label
		}
		return "collector " + s.coll.Name()
	}

	results := make([]*collector.Result, len(subs))
	fanout := tr.Start("fanout")
	m.mSubQueries.Add(int64(len(subs)))
	err = conc.ForEachCtx(ctx, len(subs), m.cfg.Parallelism, func(i int) error {
		// Span names and details are formatted only for a traced query.
		var sp *obs.Span
		if tr != nil {
			sp = tr.Start("sub:" + label(subs[i]))
		}
		sub, err := subs[i].coll.Collect(collector.Query{
			Hosts: subs[i].hosts, WithHistory: q.WithHistory, WithPredictions: q.WithPredictions,
		}.WithContext(ctx))
		if err != nil {
			sp.EndDetail(err.Error())
			// A failing sub-collector (unless the failure is the caller's
			// own cancellation) is the UNAVAILABLE class: the master is
			// fine, a site it depends on is not.
			err = fmt.Errorf("master: %s: %w", label(subs[i]), err)
			if ctx.Err() == nil {
				err = rerr.Tag(err, rerr.ErrCollectorUnavailable)
			}
			return err
		}
		if sp != nil {
			sp.EndDetail(fmt.Sprintf("%d hosts", len(subs[i].hosts)))
		}
		results[i] = sub
		return nil
	})
	if err != nil {
		fanout.EndDetail(err.Error())
		return nil, err
	}
	if fanout != nil {
		fanout.EndDetail(fmt.Sprintf("%d sub-queries", len(subs)))
	}

	// Deterministic coalescing: sites in sorted name order, wide-area
	// last — the same order the serial implementation used.
	sp := tr.Start("merge")
	res = collector.MergeResults(results, q)
	sp.End()
	return res, nil
}
