package remos

import (
	"fmt"
	"time"

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

// dialConfig accumulates Dial options: the dialed Modeler's settings,
// and what Dial resolves into its collectors.
type dialConfig struct {
	modeler.Config
	hostLoad string
	srvFlows bool
	id       proto.Identity
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
	return func(c *dialConfig) { c.PredictModel = spec }
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
	return func(c *dialConfig) { c.Obs, c.Traces = reg, traces }
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
	return func(c *dialConfig) { c.id.Tenant, c.id.Key = id, key }
}

// WithPriority sets the default queue tier for this client's queries
// (PriorityInteractive or PriorityBatch). Under load, the server's
// admission queue dispatches interactive queries first. Unset means the
// tenant's server-configured default.
func WithPriority(tier Priority) Option {
	return func(c *dialConfig) { c.id.Priority = string(tier) }
}

// Dial connects to a remote Master Collector. The target scheme selects
// the protocol — "tcp://host:port" (or a bare "host:port") for ASCII over
// TCP, "http://host:port" or "https://..." for XML over HTTP — and
// options configure host load access, prediction defaults, server-side
// flow answers, tenant identity, and observability:
//
//	conn, err := remos.Dial("tcp://master.example.edu:3567")
//	...
//	defer conn.Close()
//	bw, err := conn.AvailableBandwidthContext(ctx, src, dst)
//
// The Connection is the Modeler plus the server's watch plane. Dialing
// is lazy: no connection is made until the first query.
func Dial(target string, opts ...Option) (*Connection, error) {
	var dc dialConfig
	for _, o := range opts {
		o(&dc)
	}
	client, err := proto.NewClient(target, dc.id)
	if err != nil {
		return nil, err
	}
	conn := &Connection{client: client}
	dc.Collector = client
	if dc.srvFlows {
		dc.RemoteFlows = client
	}
	if dc.hostLoad != "" {
		if conn.hostLoad, err = proto.NewClient(dc.hostLoad, dc.id); err != nil {
			return nil, fmt.Errorf("remos: host load target: %w", err)
		}
		dc.HostLoad = conn.hostLoad
	}
	conn.Modeler = modeler.New(dc.Config)
	return conn, nil
}
