package proto

import (
	"context"
	"fmt"
	"net/netip"
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

// open starts an admitted request's trace, when tracing is on: kind the
// wire protocol, attrs the hosts asked about, first record the parse.
func (c *core) open(hosts []netip.Addr, parse string) *obs.Trace {
	ids := make([]string, len(hosts))
	for i, h := range hosts {
		ids[i] = h.String()
	}
	tr := obs.NewTrace(c.kind, strings.Join(ids, ","))
	tr.Event("parse", parse)
	return tr
}

// observe records one handler call in the request metrics and marks its
// failure as upstream; a failed request's trace goes to the ring here.
// A successful one is returned unfinished, so the codec can span its
// encoding and hand it to the ring before it writes the reply.
func (c *core) observe(start time.Time, tr *obs.Trace, err error) error {
	c.requests.Inc()
	c.seconds.Observe(time.Since(start).Seconds())
	if err == nil {
		return nil
	}
	c.errors.Inc()
	err = &upstreamError{err}
	tr.SetErr(err)
	c.traces.Observe(tr)
	return err
}

// query runs one decoded QUERY through the collector, traced.
func (c *core) query(q collector.Query) (*collector.Result, *obs.Trace, error) {
	var tr *obs.Trace
	if c.traces != nil {
		tr = c.open(q.Hosts, fmt.Sprintf("%d hosts hist=%t pred=%t",
			len(q.Hosts), q.WithHistory, q.WithPredictions))
	}
	start := time.Now()
	res, err := c.collector.Collect(q.WithContext(obs.NewContext(q.Context(), tr)))
	if err = c.observe(start, tr, err); err != nil {
		return nil, nil, err
	}
	return res, tr, nil
}

// canFlow refuses FLOWS on a server with no flow answerer. The codecs
// ask it before admission, as subscribe checks its registry before the
// watch quota: a request the server cannot answer costs the tenant
// nothing.
func (c *core) canFlow() error {
	if c.answerer == nil {
		return rerr.Tagf(rerr.ErrCollectorUnavailable, "proto: server has no flow answerer")
	}
	return nil
}

// flows runs one decoded FLOWS request through the flow answerer, which
// canFlow has found, traced as query is with the flows' distinct
// endpoints as attrs.
func (c *core) flows(ctx context.Context, flows []modeler.Flow) ([]modeler.FlowInfo, *obs.Trace, error) {
	var tr *obs.Trace
	if c.traces != nil {
		hosts := make([]netip.Addr, 0, 2*len(flows))
		for _, f := range flows {
			hosts = append(hosts, f.Src, f.Dst)
		}
		tr = c.open(modeler.DedupeHosts(hosts), fmt.Sprintf("%d flows", len(flows)))
	}
	start := time.Now()
	infos, err := c.answerer.GetFlowsContext(obs.NewContext(ctx, tr), flows, modeler.FlowOptions{})
	if err = c.observe(start, tr, err); err != nil {
		return nil, nil, err
	}
	return infos, tr, nil
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
