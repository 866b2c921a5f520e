package federation

import (
	"encoding/json"
	"net/http"
)

// AdvertSnapshot is one advert's view in the federation snapshot.
type AdvertSnapshot struct {
	Name     string  `json:"name"`
	Endpoint string  `json:"endpoint,omitempty"`
	Local    bool    `json:"local"`
	Priority int     `json:"priority"`
	Epoch    uint64  `json:"epoch"`
	Seq      uint64  `json:"seq"`
	LeaseAge float64 `json:"lease_age_seconds"`
	LeaseTTL float64 `json:"lease_ttl_seconds"`
}

// DomainSnapshot is one domain's view: its adverts in failover order
// and the router's cache state for it.
type DomainSnapshot struct {
	Domain      string           `json:"domain"`
	Adverts     []AdvertSnapshot `json:"adverts"`
	CachedFrom  string           `json:"cached_from,omitempty"`
	CachedEpoch uint64           `json:"cached_epoch,omitempty"`
	Stale       bool             `json:"stale,omitempty"`
}

// RouterSnapshot is the full diagnostic view DebugHandler serves and
// remosctl stats federation renders.
type RouterSnapshot struct {
	Domains     []DomainSnapshot `json:"domains"`
	FlowQueries int64            `json:"flow_queries"`
	Collects    int64            `json:"collects"`
	Fetches     int64            `json:"domain_fetches"`
	CacheHits   int64            `json:"cache_hits"`
	StaleServes int64            `json:"stale_serves"`
	Failovers   int64            `json:"failovers"`
	Stitches    int64            `json:"stitches"`
}

// Snapshot assembles the current mesh view: every advertised domain
// with lease ages from the directory's own clock, plus the router's
// cache and counters.
func (r *Router) Snapshot() RouterSnapshot {
	domains := r.cfg.Directory.View().Domains
	now := r.cfg.Directory.Now()
	out := RouterSnapshot{
		FlowQueries: r.mFlows.Value(),
		Collects:    r.mCollects.Value(),
		Fetches:     r.mFetches.Value(),
		CacheHits:   r.mCacheHits.Value(),
		StaleServes: r.mStale.Value(),
		Failovers:   r.mFailovers.Value(),
		Stitches:    r.mStitches.Value(),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range domains {
		ds := DomainSnapshot{Domain: d.Name, Adverts: make([]AdvertSnapshot, len(d.Adverts))}
		for i, st := range d.Adverts {
			ds.Adverts[i] = AdvertSnapshot{
				Name:     st.Name,
				Endpoint: st.Endpoint,
				Local:    st.Collector != nil,
				Priority: st.Priority,
				Epoch:    st.Epoch,
				Seq:      st.Seq,
				LeaseAge: now.Sub(st.Renewed).Seconds(),
				LeaseTTL: st.Expires.Sub(now).Seconds(),
			}
		}
		if st, ok := r.domains[d.Name]; ok {
			ds.CachedFrom, ds.CachedEpoch, ds.Stale = st.From, st.Epoch, st.Stale
		}
		out.Domains = append(out.Domains, ds)
	}
	return out
}

// DebugHandler serves the Snapshot as JSON — mounted by remosd at
// /debug/federation.
func (r *Router) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot()) //nolint:errcheck
	})
}
