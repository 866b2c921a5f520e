// Package collector defines the query/result contract every Remos
// collector implements — SNMP, Bridge, Benchmark, and Master collectors
// all answer the same Collect call — plus the measurement-history store
// they share. Collectors "exist only to obtain network resource
// information" (Section 2.2); interpretation is the Modeler's job.
package collector

import (
	"context"
	"net/netip"
	"sort"
	"sync"
	"time"

	"remos/internal/topology"
)

// Query asks a collector for the network state among a set of hosts.
type Query struct {
	// Hosts are the endpoint addresses the application cares about.
	Hosts []netip.Addr

	// WithHistory requests per-link measurement history in the result,
	// the capability the paper's XML-protocol transition adds so the
	// Modeler can drive RPS predictions from collector-side history.
	WithHistory bool

	// WithPredictions requests collector-side streaming predictions
	// per link — the paper's Section 2.3 alternative where "a single
	// model fitting operation can be amortized over multiple
	// predictions" and shared between consumers. Collectors without
	// streaming predictors simply return none.
	WithPredictions bool

	// ctx carries the caller's cancellation and the query's trace. It is
	// carried http.Request-style — unexported, accessed via Context and
	// WithContext — so the Collect signature shared by every collector
	// stays unchanged while cancellation still reaches the fan-out and
	// SNMP layers.
	ctx context.Context
}

// Context returns the query's context, never nil.
func (q Query) Context() context.Context {
	if q.ctx != nil {
		return q.ctx
	}
	return context.Background()
}

// WithContext returns a copy of the query carrying ctx. Collectors that
// fan out or wait on the wire consult it for cancellation; the per-query
// trace (package obs) also travels in it.
func (q Query) WithContext(ctx context.Context) Query {
	q.ctx = ctx
	return q
}

// Forecast is a collector-side streaming prediction for one directed
// link: expected utilization (bits/s) for horizons 1..len(Values), with
// the model's own error variance per horizon.
type Forecast struct {
	Values []float64
	ErrVar []float64
}

// HistKey identifies one measured quantity: utilization of the directed
// link From -> To (node IDs as in the result graph).
type HistKey struct {
	From, To string
}

// Sample is one timestamped bandwidth measurement in bits per second.
type Sample struct {
	T    time.Time
	Bits float64
}

// Result is a collector's answer: an annotated virtual topology plus,
// when requested, measurement history and streaming predictions for its
// links.
type Result struct {
	Graph       *topology.Graph
	History     map[HistKey][]Sample
	Predictions map[HistKey]Forecast
}

// Clone returns a deep copy of the result, so a cached answer can be
// handed to multiple consumers without sharing mutable state.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	out := &Result{}
	if r.Graph != nil {
		out.Graph = r.Graph.Clone()
	}
	if r.History != nil {
		out.History = make(map[HistKey][]Sample, len(r.History))
		for k, v := range r.History {
			out.History[k] = append([]Sample(nil), v...)
		}
	}
	if r.Predictions != nil {
		out.Predictions = make(map[HistKey]Forecast, len(r.Predictions))
		for k, v := range r.Predictions {
			out.Predictions[k] = Forecast{
				Values: append([]float64(nil), v.Values...),
				ErrVar: append([]float64(nil), v.ErrVar...),
			}
		}
	}
	return out
}

// MergeResults coalesces sub-results, in slice order, into the one
// answer q asked for: the graphs merged, and the history and predictions
// the query requested (later sub-results win a shared key). Callers that
// fan out pass the results in a fixed order so the answer does not depend
// on which sub-query landed first.
//
// MergeResults takes ownership of the sub-results, which is what lets it
// hand a lone one up as it is, trimmed to what q asked for, where a merge
// would only copy it: unless its graph has parallel links (which a merge
// folds), the copy would encode and route exactly as the original. That
// holds because every Collect returns a result its caller owns: qcache a
// Clone of its entry, the Modeler and the federation domain collector a
// Clone of a generation's graph, the proto clients what they decoded,
// the master and the federation router what MergeResults made of results
// they own in turn, and the SNMP, bridge, benchmark, host-load and
// wireless collectors a graph built for the call.
func MergeResults(results []*Result, q Query) *Result {
	if len(results) == 1 && !results[0].Graph.HasParallelLinks() {
		res := results[0]
		if !q.WithHistory {
			res.History = nil
		}
		if !q.WithPredictions {
			res.Predictions = nil
		}
		return res
	}
	merged := topology.NewGraph()
	history := make(map[HistKey][]Sample)
	forecasts := make(map[HistKey]Forecast)
	for _, sub := range results {
		merged.Merge(sub.Graph)
		for k, v := range sub.History {
			history[k] = v
		}
		for k, v := range sub.Predictions {
			forecasts[k] = v
		}
	}
	res := &Result{Graph: merged}
	if q.WithHistory {
		res.History = history
	}
	if q.WithPredictions {
		res.Predictions = forecasts
	}
	return res
}

// Interface is implemented by every collector, local or remote. Collect
// must be safe for concurrent callers.
type Interface interface {
	// Name identifies the collector for diagnostics.
	Name() string
	// Collect answers a query about the collector's portion of the
	// network. The result belongs to the caller, who may mutate it.
	Collect(q Query) (*Result, error)
}

// History is a bounded per-key store of measurement samples. Collectors
// "maintain history information for each component they monitor". It is
// safe for concurrent use.
type History struct {
	mu   sync.Mutex
	cap  int
	data map[HistKey][]Sample
}

// NewHistory creates a store keeping up to capPerKey samples per key
// (default 512).
func NewHistory(capPerKey int) *History {
	if capPerKey <= 0 {
		capPerKey = 512
	}
	return &History{cap: capPerKey, data: make(map[HistKey][]Sample)}
}

// Add appends a sample, evicting the oldest beyond capacity.
func (h *History) Add(k HistKey, s Sample) {
	h.mu.Lock()
	defer h.mu.Unlock()
	buf := append(h.data[k], s)
	if len(buf) > h.cap {
		buf = buf[len(buf)-h.cap:]
	}
	h.data[k] = buf
}

// reset drops every sample.
func (h *History) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	clear(h.data)
}

// Get returns a copy of the samples for a key, oldest first.
func (h *History) Get(k HistKey) []Sample {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Sample(nil), h.data[k]...)
}

// Latest returns the most recent sample for the key.
func (h *History) Latest(k HistKey) (Sample, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	buf := h.data[k]
	if len(buf) == 0 {
		return Sample{}, false
	}
	return buf[len(buf)-1], true
}

// Keys returns all keys in deterministic order.
func (h *History) Keys() []HistKey {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]HistKey, 0, len(h.data))
	for k := range h.data {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Snapshot copies the whole store (for query results).
func (h *History) Snapshot() map[HistKey][]Sample {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[HistKey][]Sample, len(h.data))
	for k, v := range h.data {
		out[k] = append([]Sample(nil), v...)
	}
	return out
}

// Values extracts just the measurement values of a sample slice, the form
// RPS fitters consume.
func Values(ss []Sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.Bits
	}
	return out
}
