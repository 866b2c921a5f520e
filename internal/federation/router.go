package federation

import (
	"context"
	"fmt"
	"sync"
	"time"

	"remos/internal/collector"
	"remos/internal/conc"
	"remos/internal/directory"
	"remos/internal/modeler"
	"remos/internal/obs"
	"remos/internal/rerr"
	"remos/internal/topology"
)

// RouterConfig wires a Router.
type RouterConfig struct {
	// Name is the router's collector name (default "federation-router").
	Name string
	// Directory is the local replica of the mesh directory. Required.
	Directory *directory.Service
	// Obs, when set, receives the remos_federation_* router metrics.
	Obs *obs.Registry
	// Parallelism bounds concurrent domain fetches while the stitched
	// graph is brought up to the advertised epochs (0 = unbounded by the
	// router; conc applies its default).
	Parallelism int
	// Timeout bounds each per-domain fetch (default 10s).
	Timeout time.Duration
}

// domainState is one domain's cached answer: the serving graph fetched
// from the advert named From at its advertised epoch. The cache is
// valid while the domain's best advert still carries the same name and
// epoch; a heartbeat moving the epoch on invalidates it.
type domainState struct {
	From  string
	Epoch uint64
	Graph *topology.Graph
	// Stale marks a graph being served past its epoch because every
	// advert of the domain is currently unreachable — the last-resort
	// failover step.
	Stale bool
}

// current reports whether the entry is the answer the domain's best
// advert names: fetched from it, at the epoch it advertises.
func (st domainState) current(best directory.Advert) bool {
	return !st.Stale && st.From == best.Name && st.Epoch == best.Epoch
}

// Router answers queries that may span administrative domains. It
// stitches every domain's serving graph at the border links into one
// graph and answers both faces from it: as a collector (Collect returns
// the stitched graph) and as a flow answerer (GetFlowsContext runs
// max-min on it), so a proto server backed by a Router serves intra- and
// cross-domain queries alike.
type Router struct {
	cfg RouterConfig

	mu      sync.Mutex
	domains map[string]domainState
	// The stitched-graph memo: valid while every domain's cache entry
	// is the one it was stitched from (in sorted domain order).
	stitched []domainState
	paths    *topology.PathIndex

	mCollects  *obs.Counter
	mFlows     *obs.Counter
	mFetches   *obs.Counter
	mCacheHits *obs.Counter
	mStale     *obs.Counter
	mFailovers *obs.Counter
	mStitches  *obs.Counter
	gDomains   *obs.Gauge
}

// NewRouter builds a Router over a directory replica.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Directory == nil {
		return nil, fmt.Errorf("federation: router needs a directory")
	}
	if cfg.Name == "" {
		cfg.Name = "federation-router"
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	r := &Router{cfg: cfg, domains: make(map[string]domainState)}
	r.mCollects = cfg.Obs.Counter("remos_federation_collects_total",
		"topology queries answered from the stitched graph")
	r.mFlows = cfg.Obs.Counter("remos_federation_flow_queries_total",
		"flow queries answered on the stitched federated graph")
	r.mFetches = cfg.Obs.Counter("remos_federation_domain_fetches_total",
		"domain serving graphs fetched from masters")
	r.mCacheHits = cfg.Obs.Counter("remos_federation_cache_hits_total",
		"domain graphs served from the epoch-validated cache (QUERY and FLOWS)")
	r.mStale = cfg.Obs.Counter("remos_federation_stale_serves_total",
		"domains served from a stale cache because every master was unreachable")
	r.mFailovers = cfg.Obs.Counter("remos_federation_failovers_total",
		"domain graphs fetched from a lower-priority replica after the preferred master failed")
	r.mStitches = cfg.Obs.Counter("remos_federation_stitches_total",
		"stitched federated graphs built (cache-miss path)")
	r.gDomains = cfg.Obs.Gauge("remos_federation_domains",
		"administrative domains currently advertised in the directory")
	return r, nil
}

// Name implements collector.Interface.
func (r *Router) Name() string { return r.cfg.Name }

// fetchDomain brings one domain's cache entry up to the advertised
// epoch, walking the domain's adverts in failover order and falling
// back to a stale cached graph only when every replica is unreachable.
func (r *Router) fetchDomain(ctx context.Context, d directory.Domain) error {
	r.mu.Lock()
	cur, ok := r.domains[d.Name]
	r.mu.Unlock()
	if ok && cur.current(d.Adverts[0].Advert) {
		r.mCacheHits.Inc()
		return nil
	}
	var firstErr error
	for i, st := range d.Adverts {
		a := st.Advert
		coll, err := r.cfg.Directory.Resolve(a)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		fctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
		// The empty query asks a domain master for its whole serving
		// graph — interior plus border links, exactly what stitching
		// needs.
		res, err := coll.Collect(collector.Query{}.WithContext(fctx))
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r.mFetches.Inc()
		if i > 0 {
			r.mFailovers.Inc()
		}
		r.mu.Lock()
		r.domains[d.Name] = domainState{From: a.Name, Epoch: a.Epoch, Graph: res.Graph}
		r.mu.Unlock()
		return nil
	}
	if ok {
		// Every replica is down but we hold a past answer: serve it,
		// marked stale so the stitch signature distinguishes it and the
		// next query retries the fetch.
		if !cur.Stale {
			cur.Stale = true
			r.mu.Lock()
			r.domains[d.Name] = cur
			r.mu.Unlock()
		}
		r.mStale.Inc()
		return nil
	}
	return rerr.Tag(fmt.Errorf("federation: domain %q unreachable: %w", d.Name, firstErr),
		rerr.ErrCollectorUnavailable)
}

// stitchedPaths refreshes every domain and returns the path index over
// the stitched graph, rebuilt only when some domain's epoch moved. A
// rebuild that finds the domains' nodes and links where they were — the
// masters re-polled, nothing was rewired — keeps the routing shape and
// its BFS trees (topology.NewPathIndexFrom checks that it may). The
// domains and their failover order are the directory's View, read as
// is: the view is shared, and rebuilt only when a lease changes.
func (r *Router) stitchedPaths(ctx context.Context) (*topology.PathIndex, error) {
	domains := r.cfg.Directory.View().Domains
	r.gDomains.Set(float64(len(domains)))
	if len(domains) == 0 {
		return nil, rerr.Tagf(rerr.ErrCollectorUnavailable,
			"federation: no domains advertised in the directory")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Between epoch moves every domain's entry is current: settle that
	// under one lock hold and start fetch workers only for the rest.
	var behind []directory.Domain
	r.mu.Lock()
	for _, d := range domains {
		if cur, ok := r.domains[d.Name]; ok && cur.current(d.Adverts[0].Advert) {
			r.mCacheHits.Inc()
		} else {
			behind = append(behind, d)
		}
	}
	r.mu.Unlock()
	if len(behind) > 0 {
		err := conc.ForEachCtx(ctx, len(behind), r.cfg.Parallelism, func(i int) error {
			return r.fetchDomain(ctx, behind[i])
		})
		if err != nil {
			return nil, err
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	current := r.paths != nil && len(r.stitched) == len(domains)
	for i := 0; current && i < len(domains); i++ {
		current = r.stitched[i] == r.domains[domains[i].Name]
	}
	if current {
		return r.paths, nil
	}
	// Merging every domain's serving graph joins the domains at their
	// border links and reconstructs the full topology exactly (the
	// netsim partition tests pin this), so max-min on the stitched
	// graph equals a single master's whole-graph walk byte for byte.
	stitched := topology.NewGraph()
	r.stitched = r.stitched[:0]
	for _, d := range domains {
		st := r.domains[d.Name]
		r.stitched = append(r.stitched, st)
		stitched.Merge(st.Graph)
	}
	r.mStitches.Inc()
	r.paths = topology.NewPathIndexFrom(r.paths, stitched)
	return r.paths, nil
}

// GetFlowsContext implements proto.FlowAnswerer: per-flow max-min fair
// allocations on the stitched federated graph.
func (r *Router) GetFlowsContext(ctx context.Context, flows []modeler.Flow, _ modeler.FlowOptions) ([]modeler.FlowInfo, error) {
	if len(flows) == 0 {
		return nil, fmt.Errorf("federation: no flows requested")
	}
	r.mFlows.Inc()
	paths, err := r.stitchedPaths(ctx)
	if err != nil {
		return nil, err
	}
	return modeler.AllocFlows(paths, flows, nil)
}

// Collect implements collector.Interface. A query with hosts answers
// from the stitched graph FLOWS reads — the same per-domain cache,
// failover and last-resort stale serve — so QUERY and FLOWS describe one
// network, transit domains included. The reply is the whole stitched
// graph; the modeler prunes it to the hosts. The empty query answers
// with the local domains' serving graphs — it is what peers send to
// fetch this daemon's slice of the mesh.
func (r *Router) Collect(q collector.Query) (*collector.Result, error) {
	ctx := q.Context()
	r.mCollects.Inc()
	if len(q.Hosts) == 0 {
		return r.collectLocal(ctx)
	}
	paths, err := r.stitchedPaths(ctx)
	if err != nil {
		return nil, err
	}
	for _, h := range q.Hosts {
		if paths.NodeOf(h) == topology.NoNode {
			return nil, rerr.Tagf(rerr.ErrUnknownHost,
				"federation: host %v is in no domain's serving graph", h)
		}
	}
	return &collector.Result{Graph: paths.Graph().Clone()}, nil
}

// collectLocal answers the empty query with the locally-served domains'
// graphs — adverts carrying a local collector handle are this daemon's
// own masters.
func (r *Router) collectLocal(ctx context.Context) (*collector.Result, error) {
	var local []directory.Advert
	for _, a := range r.cfg.Directory.Adverts() {
		if a.Domain != "" && a.Collector != nil {
			local = append(local, a)
		}
	}
	if len(local) == 0 {
		return nil, rerr.Tagf(rerr.ErrCollectorUnavailable,
			"federation: no local domain master to answer the empty query")
	}
	results := make([]*collector.Result, len(local))
	for i, a := range local {
		res, err := a.Collector.Collect(collector.Query{}.WithContext(ctx))
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return collector.MergeResults(results, collector.Query{}), nil
}
