package remos

import (
	"time"

	"remos/internal/rerr"
)

// The query-path error classes. Every layer — modeler, master,
// collectors, and both wire protocols — tags its failures with one of
// these, and the protocols round-trip the class across process
// boundaries, so callers can program against the class of a failure:
//
//	if errors.Is(err, remos.ErrCollectorUnavailable) { retryLater() }
//
// rather than matching message strings. Context cancellation and
// deadline errors pass through unclassified as context.Canceled and
// context.DeadlineExceeded (a server-side deadline surfaces to remote
// callers as ErrTimeout).
var (
	// ErrNoRoute: the topology holds no path between the queried hosts.
	ErrNoRoute = rerr.ErrNoRoute
	// ErrUnknownHost: no collector is responsible for a queried host.
	ErrUnknownHost = rerr.ErrUnknownHost
	// ErrCollectorUnavailable: a collector that should have answered
	// could not be reached or failed.
	ErrCollectorUnavailable = rerr.ErrCollectorUnavailable
	// ErrTimeout: the query ran out of time (an SNMP exchange, a wire
	// protocol round trip, or a remote deadline).
	ErrTimeout = rerr.ErrTimeout
	// ErrOverloaded: the server's admission layer shed the request —
	// the tenant's rate limit, concurrency cap, or quota was exceeded,
	// or the queue wait was infeasible. The error usually carries a
	// retry-after hint; see RetryAfter.
	ErrOverloaded = rerr.ErrOverloaded
	// ErrUnauthenticated: the tenant credentials set with WithTenant
	// were not accepted by the server.
	ErrUnauthenticated = rerr.ErrUnauthenticated
)

// RetryAfter extracts the server's retry-after hint from a shed
// request's error. Both wire protocols round-trip the hint, so a caller
// backs off exactly as long as the admission layer asks:
//
//	if _, err := m.GetFlowsContext(ctx, flows, opt); errors.Is(err, remos.ErrOverloaded) {
//		if d, ok := remos.RetryAfter(err); ok {
//			time.Sleep(d)
//		}
//	}
func RetryAfter(err error) (time.Duration, bool) { return rerr.RetryAfter(err) }
