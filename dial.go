package remos

import (
	"fmt"
	"strings"
	"time"

	"remos/internal/collector"
	"remos/internal/collector/qcache"
	"remos/internal/modeler"
	"remos/internal/obs"
	"remos/internal/proto"
)

// Observability re-exports for library embedders: a MetricsRegistry
// collects counters/gauges/histograms across the query path and renders
// them in Prometheus text format; a TraceRing retains the most recent
// per-query traces with per-stage durations. remosd serves both over
// HTTP; an embedding application can do the same with ObsHandler.
type (
	MetricsRegistry = obs.Registry
	TraceRing       = obs.Ring
	TraceRecord     = obs.TraceRecord
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.New() }

// NewTraceRing returns a ring retaining the last n query traces; traces
// lasting slowAfter or longer are flagged slow (slowAfter <= 0 disables
// the flag).
func NewTraceRing(n int, slowAfter time.Duration) *TraceRing { return obs.NewRing(n, slowAfter) }

// dialConfig accumulates Dial options.
type dialConfig struct {
	hostLoad  string
	predictor string
	cacheTTL  time.Duration
	obs       *obs.Registry
	traces    *obs.Ring
	srvFlows  bool
	tenant    string
	tenantKey string
	priority  string
}

// Priority is a queue tier for the server's admission layer.
type Priority string

const (
	// PriorityInteractive queries dispatch ahead of batch ones when the
	// server queues under load — a human is waiting on the answer.
	PriorityInteractive Priority = "interactive"
	// PriorityBatch queries yield to interactive ones and absorb the
	// queueing delay.
	PriorityBatch Priority = "batch"
)

// Option customizes Dial.
type Option func(*dialConfig)

// WithHostLoad points the Modeler's host load queries at a second
// collector endpoint (same target syntax as Dial).
func WithHostLoad(target string) Option {
	return func(c *dialConfig) { c.hostLoad = target }
}

// WithPredictor sets the default RPS model spec for flow predictions,
// e.g. "AR(16)" or "REFIT(ARIMA(8,1,8),128)".
func WithPredictor(spec string) Option {
	return func(c *dialConfig) { c.predictor = spec }
}

// WithCacheTTL interposes a client-side warm-query cache: identical
// queries inside ttl answer locally, and concurrent identical queries
// share one wire exchange.
func WithCacheTTL(ttl time.Duration) Option {
	return func(c *dialConfig) { c.cacheTTL = ttl }
}

// WithServerFlows delegates flow queries (and the bandwidth queries
// built on them) to the daemon's FLOWS verb, so answers come from the
// server's versioned topology snapshot without shipping the graph.
// Prediction queries still run client-side, and a server that predates
// the verb falls back transparently to the graph-fetching path.
func WithServerFlows() Option {
	return func(c *dialConfig) { c.srvFlows = true }
}

// WithObservability attaches metrics and tracing to the dialed Modeler.
// Either argument may be nil to enable only the other.
func WithObservability(reg *MetricsRegistry, traces *TraceRing) Option {
	return func(c *dialConfig) { c.obs, c.traces = reg, traces }
}

// WithTenant identifies this client to the server's multi-tenant
// admission layer. The identity rides both wire protocols (an ASCII
// TENANT preamble, X-Remos-Tenant headers on HTTP) and selects the
// tenant's rate limits, concurrency caps, and watch quota; bad
// credentials surface as ErrUnauthenticated, shed requests as
// ErrOverloaded with a RetryAfter hint. Servers without an admission
// layer ignore the identity, so tenant-configured clients interoperate
// with older daemons.
func WithTenant(id, key string) Option {
	return func(c *dialConfig) { c.tenant, c.tenantKey = id, key }
}

// WithPriority sets the default queue tier for this client's queries
// (PriorityInteractive or PriorityBatch). Under load, the server's
// admission queue dispatches interactive queries first. Unset means the
// tenant's server-configured default.
func WithPriority(tier Priority) Option {
	return func(c *dialConfig) { c.priority = string(tier) }
}

// clientFor maps a Dial target to a protocol client. "tcp://host:port"
// (or a bare "host:port") speaks the ASCII protocol; "http://..." and
// "https://..." speak the XML protocol. The dial config's tenant
// identity is stamped onto whichever client is built.
func clientFor(target string, dc *dialConfig) (collector.Interface, error) {
	switch {
	case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"):
		return &proto.HTTPClient{
			BaseURL: strings.TrimSuffix(target, "/"),
			Tenant:  dc.tenant, TenantKey: dc.tenantKey, Priority: dc.priority,
		}, nil
	case strings.HasPrefix(target, "tcp://"):
		target = strings.TrimPrefix(target, "tcp://")
		fallthrough
	default:
		if target == "" {
			return nil, fmt.Errorf("remos: empty dial target")
		}
		if strings.Contains(target, "://") {
			return nil, fmt.Errorf("remos: unsupported scheme in dial target %q (want tcp:// or http://)", target)
		}
		return &proto.TCPClient{
			Addr:   target,
			Tenant: dc.tenant, TenantKey: dc.tenantKey, Priority: dc.priority,
		}, nil
	}
}

// Dial connects a Modeler to a remote Master Collector. The target
// scheme selects the protocol — "tcp://host:port" (or a bare
// "host:port") for ASCII over TCP, "http://host:port" for XML over HTTP
// — and options configure host load access, prediction defaults,
// client-side caching, and observability:
//
//	m, err := remos.Dial("tcp://master.example.edu:3567",
//		remos.WithCacheTTL(5*time.Second))
//	...
//	bw, err := m.AvailableBandwidthContext(ctx, src, dst)
//
// Dialing is lazy: no connection is made until the first query.
func Dial(target string, opts ...Option) (*Modeler, error) {
	m, _, err := dial(target, opts...)
	return m, err
}

// dial is the shared body of Dial and Connect: it also returns the raw
// protocol client so Connect can reach the watch plane beneath any
// cache wrapping.
func dial(target string, opts ...Option) (*Modeler, collector.Interface, error) {
	var dc dialConfig
	for _, o := range opts {
		o(&dc)
	}
	raw, err := clientFor(target, &dc)
	if err != nil {
		return nil, nil, err
	}
	coll := raw
	if dc.cacheTTL > 0 {
		coll = qcache.New(coll, qcache.Config{TTL: dc.cacheTTL, Now: time.Now, Obs: dc.obs})
	}
	cfg := modeler.Config{
		Collector:    coll,
		PredictModel: dc.predictor,
		Obs:          dc.obs,
		Traces:       dc.traces,
	}
	if dc.srvFlows {
		// Both protocol clients speak the FLOWS verb; delegation goes
		// around any client-side cache (the server answers from its
		// snapshot plane, which is cheaper than a cached graph here).
		if fc, ok := raw.(modeler.FlowsClient); ok {
			cfg.RemoteFlows = fc
		}
	}
	if dc.hostLoad != "" {
		if cfg.HostLoad, err = clientFor(dc.hostLoad, &dc); err != nil {
			return nil, nil, fmt.Errorf("remos: host load target: %w", err)
		}
	}
	return modeler.New(cfg), raw, nil
}
