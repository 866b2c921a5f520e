package remos

import (
	"fmt"

	"remos/internal/modeler"
	"remos/internal/proto"
)

// dialConfig accumulates Dial options: what Dial resolves into the
// dialed Modeler's collectors.
type dialConfig struct {
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

// WithServerFlows delegates flow queries (and the bandwidth queries
// built on them) to the daemon's FLOWS verb, so answers come from the
// server's versioned topology snapshot without shipping the graph.
// Prediction queries still run client-side, and a server that predates
// the verb falls back transparently to the graph-fetching path.
func WithServerFlows() Option {
	return func(c *dialConfig) { c.srvFlows = true }
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
// options configure host load access, server-side flow answers, and
// tenant identity:
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
	mc := modeler.Config{Collector: client}
	if dc.srvFlows {
		mc.RemoteFlows = client
	}
	if dc.hostLoad != "" {
		if conn.hostLoad, err = proto.NewClient(dc.hostLoad, dc.id); err != nil {
			return nil, fmt.Errorf("remos: host load target: %w", err)
		}
		mc.HostLoad = conn.hostLoad
	}
	conn.Modeler = modeler.New(mc)
	return conn, nil
}
