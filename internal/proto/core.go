package proto

import (
	"context"
	"fmt"
	"strings"
	"time"

	"remos/internal/admission"
	"remos/internal/collector"
	"remos/internal/modeler"
	"remos/internal/obs"
	"remos/internal/rerr"
	"remos/internal/watch"
)

// core is the request contract both wire protocols serve: who is asking
// (identify), may they ask now (admit), and the three verbs (query,
// flows, subscribe). ascii.go and xmlhttp.go are codecs over it: they
// decode, run these steps in the order their transport needs, and encode
// the result or the error. Capability check, trace, handler call,
// request metrics and error class happen here, once.
type core struct {
	collector collector.Interface
	answerer  FlowAnswerer
	registry  *watch.Registry
	admission *admission.Controller
	traces    *obs.Ring
	kind      string // trace kind and "proto" metric label: "ascii" or "xml"

	// Resolved once at listen time so the serving path touches only atomics.
	requests *obs.Counter
	errors   *obs.Counter
	seconds  *obs.Histogram
}

func newCore(kind string, coll collector.Interface, answerer FlowAnswerer, registry *watch.Registry,
	adm *admission.Controller, reg *obs.Registry, traces *obs.Ring) core {
	return core{
		collector: coll, answerer: answerer, registry: registry, admission: adm, traces: traces, kind: kind,
		requests: reg.Counter("remos_requests_total",
			"queries served over the component protocols", "proto", kind),
		errors: reg.Counter("remos_request_errors_total",
			"served queries that failed", "proto", kind),
		seconds: reg.Histogram("remos_request_seconds",
			"query serving latency in seconds", nil, "proto", kind),
	}
}

// upstreamError marks a failure the collector or flow answerer behind
// the server returned, as opposed to one the server raised itself: the
// HTTP codec answers these as a gateway (502) whatever their class.
type upstreamError struct{ err error }

func (u *upstreamError) Error() string { return u.err.Error() }
func (u *upstreamError) Unwrap() error { return u.err }

// identify resolves presented credentials and a wire tier token. Empty
// credentials are the anonymous tenant; a server without an admission
// controller accepts any identity.
func (c *core) identify(id, key, tier string) (admission.Tenant, admission.Tier, error) {
	ten, err := c.admission.Authenticate(id, key)
	if err != nil {
		return admission.Tenant{}, admission.TierDefault, err
	}
	t, ok := admission.ParseTier(tier)
	if !ok {
		return admission.Tenant{}, admission.TierDefault, fmt.Errorf("proto: unknown priority tier %q", tier)
	}
	return ten, t, nil
}

// admit gates one QUERY or FLOWS request; the release func must be
// called when the request finishes. ctx bounds the queue wait.
func (c *core) admit(ctx context.Context, ten admission.Tenant, tier admission.Tier) (func(), error) {
	return c.admission.Admit(ctx, ten, tier)
}

// observe records one handler call in the request metrics and marks its
// failure as upstream.
func (c *core) observe(start time.Time, err error) error {
	c.requests.Inc()
	c.seconds.Observe(time.Since(start).Seconds())
	if err == nil {
		return nil
	}
	c.errors.Inc()
	return &upstreamError{err}
}

// query runs one decoded QUERY through the collector with a fresh trace
// in its context (when tracing is on). On success the trace is returned
// unfinished so the codec can span its encoding before handing it to the
// ring; a failed query's trace is already there.
func (c *core) query(q collector.Query) (*collector.Result, *obs.Trace, error) {
	var tr *obs.Trace
	if c.traces != nil {
		hosts := make([]string, len(q.Hosts))
		for i, h := range q.Hosts {
			hosts[i] = h.String()
		}
		tr = obs.NewTrace(c.kind, strings.Join(hosts, ","))
		tr.Event("parse", fmt.Sprintf("%d hosts hist=%t pred=%t",
			len(q.Hosts), q.WithHistory, q.WithPredictions))
	}
	start := time.Now()
	res, err := c.collector.Collect(q.WithContext(obs.NewContext(q.Context(), tr)))
	if err = c.observe(start, err); err != nil {
		tr.SetErr(err)
		c.traces.Observe(tr)
		return nil, nil, err
	}
	return res, tr, nil
}

// canFlow refuses FLOWS on a server with no flow answerer. The codecs
// ask it before admission, as subscribe checks its registry before the
// watch quota: a client that falls back to QUERY is not charged twice.
func (c *core) canFlow() error {
	if c.answerer == nil {
		return rerr.Tagf(rerr.ErrCollectorUnavailable, "proto: server has no flow answerer")
	}
	return nil
}

// flows runs one decoded FLOWS request through the flow answerer, which
// canFlow has found.
func (c *core) flows(ctx context.Context, flows []modeler.Flow) ([]modeler.FlowInfo, error) {
	start := time.Now()
	infos, err := c.answerer.GetFlowsContext(ctx, flows, modeler.FlowOptions{})
	return infos, c.observe(start, err)
}

// subscribe registers one watch against the tenant's quota. The codec
// drains the subscription onto its transport and calls release exactly
// once when the subscription has ended, however it ended.
func (c *core) subscribe(ten admission.Tenant, spec watch.Spec) (sub *watch.Subscription, release func(), err error) {
	if c.registry == nil {
		return nil, nil, rerr.Tagf(rerr.ErrCollectorUnavailable, "proto: server has no watch registry")
	}
	if release, err = c.admission.AcquireWatch(ten); err != nil {
		return nil, nil, err
	}
	if sub, err = c.registry.Subscribe(spec); err != nil {
		release()
		return nil, nil, err
	}
	return sub, release, nil
}
