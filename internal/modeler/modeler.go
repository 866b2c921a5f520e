// Package modeler implements the Remos Modeler: the single component that
// exposes the Remos API to applications (Section 2.2). It submits queries
// to its Master Collector, post-processes the returned topologies
// (pruning, virtual-switch simplification, max-min flow calculation) and,
// when predictions are requested, acts as the intermediary between the
// collectors' measurement histories and the RPS prediction toolkit.
package modeler

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"time"

	"remos/internal/collector"
	"remos/internal/obs"
	"remos/internal/rerr"
	"remos/internal/rps"
	"remos/internal/snapshot"
	"remos/internal/topology"
)

// Config configures a Modeler.
type Config struct {
	// Collector answers the Modeler's queries — normally a Master
	// Collector, local or reached through one of the wire protocols.
	Collector collector.Interface

	// Snapshot, when set, is the versioned snapshot plane: topology
	// queries (Collect, raw or not) and flow queries are answered from
	// the current generation when it is fresh within the staleness
	// bound — no collector round-trip — and fall back to collector
	// fan-out (coalesced through the store's single-flight) on miss or
	// stale. Queries that need measurement history (history, prediction)
	// always go to the collectors: the snapshot does not carry it.
	Snapshot *snapshot.Store

	// MaxStale is the staleness bound for snapshot-backed answers: the
	// oldest reading a query answered from the snapshot plane may carry.
	// It must be positive when Snapshot is set.
	MaxStale time.Duration

	// RemoteFlows, when set, delegates flow queries to a remote daemon's
	// FLOWS verb so the answer comes from the server's snapshot plane
	// without shipping the graph. Prediction queries do not delegate:
	// they need collector-side history and a local model choice. A server
	// that does not answer FLOWS (rerr.ErrCollectorUnavailable) falls
	// back to fetching the graph and solving locally.
	RemoteFlows FlowsClient

	// HostLoad, when set, answers host load queries (a host load
	// collector, local or remote). Optional; HostLoad queries fail
	// without it.
	HostLoad collector.Interface

	// Obs, when set, counts API queries by kind. Traces, when set,
	// records a trace per API call (unless the caller's context already
	// carries one, as it does under an instrumented protocol server).
	Obs    *obs.Registry
	Traces *obs.Ring
}

// Modeler is a per-application Remos endpoint.
type Modeler struct {
	cfg     Config
	queries [len(queryKinds)]*obs.Counter // remos_modeler_queries_total{kind}
}

// queryKind indexes queryKinds: the API calls the Modeler counts and
// traces by name.
type queryKind int

const (
	topologyQuery queryKind = iota
	flowsQuery
	hostloadQuery
	predictQuery
)

var queryKinds = [...]string{"topology", "flows", "hostload", "predict"}

// begin counts an API call and, when tracing is configured and the
// context does not already carry a trace, opens one labelled with the
// hosts asked about. The returned finish must be called when the API
// call completes.
func (m *Modeler) begin(ctx context.Context, kind queryKind, hosts []netip.Addr) (context.Context, func(error)) {
	m.queries[kind].Inc()
	tr := obs.FromContext(ctx)
	if tr != nil || m.cfg.Traces == nil {
		return ctx, func(error) {}
	}
	tr = obs.NewTrace(queryKinds[kind], hostAttrs(hosts))
	return obs.NewContext(ctx, tr), func(err error) {
		tr.SetErr(err)
		m.cfg.Traces.Observe(tr)
	}
}

func hostAttrs(hosts []netip.Addr) string {
	ids := make([]string, len(hosts))
	for i, h := range hosts {
		ids[i] = h.String()
	}
	return strings.Join(ids, ",")
}

// predictModel is the RPS model spec flow predictions use unless the
// query names one, and host load forecasts always: AR(16), the paper's
// host-load choice; bandwidth series at 5s polls are well served by it
// too. A series shorter than minHistory samples is not fitted: its
// forecast is the last measured value.
const (
	predictModel = "AR(16)"
	minHistory   = 64
)

// New creates a Modeler over the given collector. It panics on a Config
// with a snapshot store and no positive staleness bound: a store nothing
// may answer from is a wiring bug.
func New(cfg Config) *Modeler {
	if cfg.Snapshot != nil && cfg.MaxStale <= 0 {
		panic("modeler: Config.MaxStale must be positive with a Snapshot")
	}
	m := &Modeler{cfg: cfg}
	for kind, name := range queryKinds {
		m.queries[kind] = cfg.Obs.Counter("remos_modeler_queries_total",
			"Remos API queries by kind", "kind", name)
	}
	return m
}

// dedupeHosts returns the unique hosts in first-seen order. Queries
// built from flow lists (or careless callers) repeat endpoints, and a
// duplicated host walks the collectors twice, so every collector-bound
// host set passes through here first.
func dedupeHosts(hosts []netip.Addr) []netip.Addr {
	return compactHosts(slices.Clone(hosts), nil)
}

// dedupeScanMax is the largest host set deduplicated by comparing each
// host with the ones kept so far: cheaper than building a map up to a
// few dozen hosts, and a flow query names at most a dozen or two.
const dedupeScanMax = 32

// compactHosts is dedupeHosts in place: the result is a prefix of hosts.
// at, when not nil, is as long as hosts and receives each given host's
// position in the result.
func compactHosts(hosts []netip.Addr, at []int32) []netip.Addr {
	out := hosts[:0]
	var seen map[netip.Addr]int32
	if len(hosts) > dedupeScanMax {
		seen = make(map[netip.Addr]int32, len(hosts))
	}
	for i, h := range hosts {
		pos := int32(-1)
		if seen == nil {
			pos = int32(slices.Index(out, h))
		} else if p, ok := seen[h]; ok {
			pos = p
		}
		if pos < 0 {
			pos = int32(len(out))
			out = append(out, h)
			if seen != nil {
				seen[h] = pos
			}
		}
		if at != nil {
			at[i] = pos
		}
	}
	return out
}

// snapshotFor returns a generation covering hosts within MaxStale,
// running the coalesced refresh on miss. nil means "serve this query
// through a direct collect" — the plane is off, or the shared walk
// failed (its failure is shared, the fallback is private). nodes, when
// not nil, is as long as hosts and receives their node numbers in the
// generation's path index.
func (m *Modeler) snapshotFor(ctx context.Context, hosts []netip.Addr, nodes []int32) *snapshot.Snapshot {
	st := m.cfg.Snapshot
	if st == nil {
		return nil
	}
	if s := st.FreshNodes(hosts, nodes, m.cfg.MaxStale); s != nil {
		return s
	}
	s, err := st.Refresh(ctx, m.cfg.Collector, hosts)
	if err != nil {
		return nil
	}
	if nodes != nil {
		for i, h := range hosts {
			nodes[i] = s.Paths().NodeOf(h)
		}
	}
	return s
}

// Name implements collector.Interface.
func (m *Modeler) Name() string { return "modeler" }

// Collect implements collector.Interface: it is the QUERY verb's answer
// and the graph GetTopologyContext simplifies. A query with hosts and
// neither history flag answers from a generation covering them within
// MaxStale: the whole serving graph, copy-on-write, which the asker
// prunes. Anything else — history, predictions, no snapshot plane, a
// failed shared walk — goes to the collectors, privately: the shared
// walk's failure may belong to another caller's host.
func (m *Modeler) Collect(q collector.Query) (*collector.Result, error) {
	if len(q.Hosts) > 0 && !q.WithHistory && !q.WithPredictions {
		if snap := m.snapshotFor(q.Context(), dedupeHosts(q.Hosts), nil); snap != nil {
			return &collector.Result{Graph: snap.Graph().Clone()}, nil
		}
	}
	return m.cfg.Collector.Collect(q)
}

// TopologyOptions controls post-processing of topology query results.
type TopologyOptions struct {
	// Raw disables all simplification, returning the graph Collect
	// answers: with a snapshot plane, the whole serving generation.
	Raw bool
}

// GetTopologyContext answers the Remos topology query: the virtual
// topology spanning the given hosts, annotated with capacity and
// utilization. By default the Modeler simplifies the graph — pruning
// off-path detail, collapsing switch clouds into virtual switches and
// splicing out degree-2 chains — "to present the topology to the
// application in a more manageable form". The context's cancellation and
// deadline reach the master fan-out and the SNMP exchanges underneath,
// and its trace (if any) collects the query's stage timings.
func (m *Modeler) GetTopologyContext(ctx context.Context, hosts []netip.Addr, opt TopologyOptions) (g *topology.Graph, err error) {
	hosts = dedupeHosts(hosts)
	ctx, finish := m.begin(ctx, topologyQuery, hosts)
	defer func() { finish(err) }()
	tr := obs.FromContext(ctx)
	sp := tr.Start("collect")
	res, err := m.Collect(collector.Query{Hosts: hosts}.WithContext(ctx))
	sp.End()
	if err != nil {
		return nil, err
	}
	g = res.Graph
	if opt.Raw {
		return g, nil
	}
	defer tr.Start("simplify").End()
	ids := make([]string, len(hosts))
	protect := make(map[string]bool, len(hosts))
	for i, h := range hosts {
		ids[i] = h.String()
		protect[ids[i]] = true
	}
	g, err = g.Prune(ids)
	if err != nil {
		return nil, err
	}
	g.CollapseSwitchClouds("vswitch")
	g.CollapseChains(protect)
	return g, nil
}

// Flow names one flow an application wants to create: Src, Dst and the
// Demand in bits per second, 0 asking "as much as possible". It is the
// path index's own request type, so a flow list reaches the index as
// the caller built it.
type Flow = topology.AddrFlow

// FlowInfo is the answer for one requested flow.
type FlowInfo struct {
	Flow      Flow
	Available float64 // max-min fair bandwidth the flow can expect now
	Latency   time.Duration
	// Jitter is the path's delay variation, measured by benchmark
	// collectors where available (zero on purely SNMP-derived paths).
	Jitter time.Duration
	Path   []string

	// Predicted, when prediction was requested, is the expected
	// available bandwidth at the prediction horizon, with ErrVar the
	// model's own error estimate — RPS characterizes its prediction
	// error so applications can make variance-aware decisions.
	Predicted float64
	ErrVar    float64
}

// AllocFlows answers flows from a path index over a graph whose hosts
// are identified by address text — the index's FlowAlloc on the rendered
// endpoints, without rendering them — each flow's prediction the current
// value. ends is the endpoints' node numbers if the caller has them, else
// nil (PathIndex.FlowAllocAddrs). Every flow answer the Modeler computes
// is this one's.
func AllocFlows(px *topology.PathIndex, flows []Flow, ends []int32) ([]FlowInfo, error) {
	out := make([]FlowInfo, len(flows))
	err := px.FlowAllocAddrs(flows, ends, func(i int, avail float64, lat, jitter time.Duration, path []string) {
		out[i] = FlowInfo{
			Flow: flows[i], Available: avail, Latency: lat, Jitter: jitter, Path: path,
			Predicted: avail,
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FlowsClient is the client side of the wire FLOWS verb; both protocol
// clients implement it. See Config.RemoteFlows.
type FlowsClient interface {
	Flows(ctx context.Context, flows []Flow) ([]FlowInfo, error)
}

// FlowOptions controls flow queries.
type FlowOptions struct {
	// Predict asks for a prediction Horizon poll intervals ahead using
	// collector-side measurement history and the RPS toolkit.
	Predict bool
	// Horizon is the number of steps ahead (default 1).
	Horizon int
	// Model is the RPS model spec to predict with (default "AR(16)").
	Model string
	// FromCollector prefers collector-side streaming predictions over
	// fitting models client-side — the Section 2.3 trade-off: streaming
	// predictions are amortized and shared between consumers, while
	// client-side fitting honors per-application model choices. Links
	// without a streaming forecast fall back to client-side fitting.
	FromCollector bool
}

// GetFlowsContext answers the Remos flow query: for the set of flows the
// application wants to create simultaneously, the max-min fair bandwidth
// each can expect, on the current topology and optionally on the
// predicted one. Cancellation, deadline, and trace propagate through the
// whole query path.
func (m *Modeler) GetFlowsContext(ctx context.Context, flows []Flow, opt FlowOptions) (out []FlowInfo, err error) {
	if len(flows) == 0 {
		return nil, fmt.Errorf("modeler: no flows requested")
	}
	// hosts is every endpoint, then the distinct ones; ends[k] is where
	// endpoint k stands among the distinct hosts, then its node number;
	// nodes holds the distinct hosts' numbers. All three live on the stack
	// for any query the scan dedupes: only the collect below copies hosts.
	var hostsBuf [dedupeScanMax]netip.Addr
	var endsBuf, nodesBuf [dedupeScanMax]int32
	hosts, ends, nodes := hostsBuf[:0], endsBuf[:], nodesBuf[:]
	if n := 2 * len(flows); n > dedupeScanMax {
		hosts, ends, nodes = make([]netip.Addr, 0, n), make([]int32, n), make([]int32, n)
	}
	for _, f := range flows {
		hosts = append(hosts, f.Src, f.Dst)
	}
	ends = ends[:len(hosts)]
	hosts = compactHosts(hosts, ends)
	nodes = nodes[:len(hosts)]
	ctx, finish := m.begin(ctx, flowsQuery, hosts)
	defer func() { finish(err) }()
	tr := obs.FromContext(ctx)

	// The snapshot fast path: a fresh-enough generation answers from its
	// memoized path index — no collector round-trip, no graph clone, no
	// endpoint rendered as text, each distinct host resolved to its node
	// number once for the freshness check and the routing both, and a
	// max-min run over only the links these flows cross. Prediction
	// queries skip it; they need collector-side history.
	if !opt.Predict {
		if snap := m.snapshotFor(ctx, hosts, nodes); snap != nil {
			for k, pos := range ends {
				ends[k] = nodes[pos]
			}
			sp := tr.Start("maxmin")
			infos, perr := AllocFlows(snap.Paths(), flows, ends)
			sp.End()
			if perr == nil {
				return infos, nil
			}
			if !errors.Is(perr, rerr.ErrUnknownHost) {
				// A routing answer (e.g. no path) from a fresh snapshot
				// is the answer; only unknown endpoints merit a walk.
				return nil, perr
			}
		}
		// Remote delegation: let the daemon answer from its own snapshot
		// plane instead of shipping the graph here.
		if rf := m.cfg.RemoteFlows; rf != nil {
			sp := tr.Start("remote")
			rout, rferr := rf.Flows(ctx, flows)
			sp.End()
			if rferr == nil {
				return rout, nil
			}
			if !errors.Is(rferr, rerr.ErrCollectorUnavailable) {
				return nil, rferr
			}
			// The server predates the FLOWS verb (or runs without a flow
			// answerer): fetch the graph and solve locally instead.
		}
	}

	sp := tr.Start("collect")
	res, err := m.cfg.Collector.Collect(collector.Query{
		Hosts:           slices.Clone(hosts),
		WithHistory:     opt.Predict,
		WithPredictions: opt.Predict && opt.FromCollector,
	}.WithContext(ctx))
	sp.End()
	if err != nil {
		return nil, err
	}

	sp = tr.Start("maxmin")
	px := topology.NewPathIndex(res.Graph)
	out, err = AllocFlows(px, flows, nil)
	sp.End()
	if err != nil {
		return nil, err
	}
	if !opt.Predict {
		return out, nil
	}

	// Prediction: forecast each link's utilization from its history,
	// rebuild the graph with predicted utilizations, and re-run the
	// max-min calculation. Prediction happens here, above the
	// collectors, because component behaviours must be combined after
	// forecasting, not before (Section 2.3).
	horizon := opt.Horizon
	if horizon <= 0 {
		horizon = 1
	}
	spec := opt.Model
	if spec == "" {
		spec = predictModel
	}
	fitter, err := rps.ParseFitter(spec)
	if err != nil {
		return nil, err
	}
	defer tr.Start("predict").End()
	predicted := res.Graph.Clone()
	linkErr := make(map[string]float64) // link key -> predicted errvar (bits²)
	for _, l := range predicted.Links() {
		fwd, fv := m.predictLink(res, collector.HistKey{From: l.From, To: l.To}, fitter, horizon, opt)
		rev, rv := m.predictLink(res, collector.HistKey{From: l.To, To: l.From}, fitter, horizon, opt)
		if fwd >= 0 {
			l.UtilFromTo = fwd
		}
		if rev >= 0 {
			l.UtilToFrom = rev
		}
		linkErr[l.From+"|"+l.To] = maxf(fv, rv)
	}
	// The clone carries the walk's shape, so its index reuses the walk's
	// trees.
	ppreds, err := AllocFlows(topology.NewPathIndexFrom(px, predicted), flows, nil)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].Predicted = ppreds[i].Available
		// The flow's error estimate: the worst link error along its
		// path.
		var ev float64
		p := ppreds[i].Path
		for j := 0; j+1 < len(p); j++ {
			if v, ok := linkErr[p[j]+"|"+p[j+1]]; ok && v > ev {
				ev = v
			}
			if v, ok := linkErr[p[j+1]+"|"+p[j]]; ok && v > ev {
				ev = v
			}
		}
		out[i].ErrVar = ev
	}
	return out, nil
}

// predictLink forecasts one directed link's utilization at the horizon:
// from the collector's streaming forecast when requested and available,
// otherwise by fitting client-side to the link's history.
func (m *Modeler) predictLink(res *collector.Result, k collector.HistKey, fitter rps.Fitter, horizon int, opt FlowOptions) (float64, float64) {
	if opt.FromCollector {
		if fc, ok := res.Predictions[k]; ok && len(fc.Values) > 0 {
			h := horizon
			if h > len(fc.Values) {
				h = len(fc.Values) // use the furthest available step
			}
			v := fc.Values[h-1]
			if v < 0 {
				v = 0
			}
			ev := 0.0
			if h-1 < len(fc.ErrVar) {
				ev = fc.ErrVar[h-1]
			}
			return v, ev
		}
	}
	return m.predictSeries(res.History[k], fitter, horizon)
}

// predictSeries forecasts the mean of the next horizon values of a
// utilization series; negative return means no usable history. The error
// variance at the horizon is returned alongside.
func (m *Modeler) predictSeries(ss []collector.Sample, fitter rps.Fitter, horizon int) (float64, float64) {
	if len(ss) == 0 {
		return -1, 0
	}
	vals := collector.Values(ss)
	if len(vals) < minHistory {
		// Too little history to fit: use the last measurement.
		return vals[len(vals)-1], 0
	}
	p, err := rps.Predict(fitter, vals, horizon)
	if err != nil {
		return vals[len(vals)-1], 0
	}
	v := p.Values[horizon-1]
	if v < 0 {
		v = 0 // utilization cannot be negative
	}
	return v, p.ErrVar[horizon-1]
}

// AvailableBandwidthContext is the scalar convenience query: the max-min
// bandwidth a single new flow between the two hosts can expect.
func (m *Modeler) AvailableBandwidthContext(ctx context.Context, src, dst netip.Addr) (float64, error) {
	infos, err := m.GetFlowsContext(ctx, []Flow{{Src: src, Dst: dst}}, FlowOptions{})
	if err != nil {
		return 0, err
	}
	return infos[0].Available, nil
}

// ServerRank is one candidate in a BestServerContext answer.
type ServerRank struct {
	Server    netip.Addr
	Bandwidth float64 // predicted available bandwidth client<-server
	Err       error   // non-nil if the candidate could not be evaluated
}

// BestServerContext ranks candidate servers by the bandwidth a download
// to client can expect, best first — the mirrored-server and video-server
// selection pattern of Sections 5.4 and 5.5. Unreachable candidates sort
// last with their error recorded; a cancellation stops the remaining
// candidate evaluations.
func (m *Modeler) BestServerContext(ctx context.Context, client netip.Addr, servers []netip.Addr, opt FlowOptions) ([]ServerRank, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("modeler: no candidate servers")
	}
	ranks := make([]ServerRank, len(servers))
	for i, srv := range servers {
		ranks[i].Server = srv
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Server-to-client direction: downloads flow that way.
		infos, err := m.GetFlowsContext(ctx, []Flow{{Src: srv, Dst: client}}, opt)
		if err != nil {
			ranks[i].Err = err
			continue
		}
		if opt.Predict {
			ranks[i].Bandwidth = infos[0].Predicted
		} else {
			ranks[i].Bandwidth = infos[0].Available
		}
	}
	sort.SliceStable(ranks, func(i, j int) bool {
		if (ranks[i].Err == nil) != (ranks[j].Err == nil) {
			return ranks[i].Err == nil
		}
		return ranks[i].Bandwidth > ranks[j].Bandwidth
	})
	if ranks[0].Err != nil {
		return ranks, fmt.Errorf("modeler: no candidate server reachable: %v", ranks[0].Err)
	}
	return ranks, nil
}

// HostLoadInfo answers a host load query.
type HostLoadInfo struct {
	// Current is the most recent load sample.
	Current float64
	// Forecast holds predicted load for horizons 1..len(Values) with
	// per-horizon error variances; empty when no prediction could be
	// made.
	Forecast rps.Prediction
}

// HostLoadContext reports a host's current CPU load and its forecast,
// from the configured host load collector: collector-side streaming
// forecasts when available, otherwise a client-side fit over the load
// history with the modeler's prediction model. This is the
// host-measurement half of the Remos/RPS coupling ("RPS provides
// prediction services and host measurement services to Remos").
func (m *Modeler) HostLoadContext(ctx context.Context, h netip.Addr, horizon int) (info HostLoadInfo, err error) {
	if m.cfg.HostLoad == nil {
		return HostLoadInfo{}, fmt.Errorf("modeler: no host load collector configured")
	}
	if horizon <= 0 {
		horizon = 1
	}
	ctx, finish := m.begin(ctx, hostloadQuery, []netip.Addr{h})
	defer func() { finish(err) }()
	res, err := m.cfg.HostLoad.Collect(collector.Query{
		Hosts:           []netip.Addr{h},
		WithHistory:     true,
		WithPredictions: true,
	}.WithContext(ctx))
	if err != nil {
		return HostLoadInfo{}, err
	}
	key := collector.HistKey{From: h.String(), To: "cpu"}
	hist := res.History[key]
	if len(hist) == 0 {
		return HostLoadInfo{}, fmt.Errorf("modeler: no load samples for %v yet", h)
	}
	info = HostLoadInfo{Current: hist[len(hist)-1].Bits}
	if fc, ok := res.Predictions[key]; ok && len(fc.Values) > 0 {
		n := horizon
		if n > len(fc.Values) {
			n = len(fc.Values)
		}
		info.Forecast = rps.Prediction{
			Values: append([]float64(nil), fc.Values[:n]...),
			ErrVar: append([]float64(nil), fc.ErrVar[:n]...),
		}
		return info, nil
	}
	// Client-side fit over the history.
	if len(hist) >= minHistory {
		fitter, err := rps.ParseFitter(predictModel)
		if err == nil {
			if p, err := rps.Predict(fitter, collector.Values(hist), horizon); err == nil {
				info.Forecast = p
			}
		}
	}
	return info, nil
}

// PredictSeriesContext runs a client-server RPS prediction over the
// measurement history the collectors hold for the directed pair of node
// IDs.
func (m *Modeler) PredictSeriesContext(ctx context.Context, src, dst netip.Addr, spec string, horizon int) (p rps.Prediction, err error) {
	ctx, finish := m.begin(ctx, predictQuery, []netip.Addr{src, dst})
	defer func() { finish(err) }()
	res, err := m.cfg.Collector.Collect(collector.Query{
		Hosts:       []netip.Addr{src, dst},
		WithHistory: true,
	}.WithContext(ctx))
	if err != nil {
		return rps.Prediction{}, err
	}
	// Fit the longest link history along the path.
	path, err := res.Graph.Path(src.String(), dst.String())
	if err != nil {
		return rps.Prediction{}, err
	}
	fitter, err := rps.ParseFitter(spec)
	if err != nil {
		return rps.Prediction{}, err
	}
	var best []collector.Sample
	for i := 0; i+1 < len(path); i++ {
		if ss := res.History[collector.HistKey{From: path[i], To: path[i+1]}]; len(ss) > len(best) {
			best = ss
		}
	}
	if len(best) == 0 {
		return rps.Prediction{}, fmt.Errorf("modeler: no history available between %v and %v", src, dst)
	}
	return rps.Predict(fitter, collector.Values(best), horizon)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
