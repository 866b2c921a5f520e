package proto

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"remos/internal/admission"
	"remos/internal/collector"
	"remos/internal/obs"
	"remos/internal/rerr"
	"remos/internal/topology"
	"remos/internal/watch"
)

// The XML-over-HTTP protocol ("we would like to replace [the text format]
// with an XML format using HTTP as a communication protocol ... the XML
// format will enable us to send an entire history of network measurements
// to the RPS subsystem").

type xmlQuery struct {
	XMLName     xml.Name `xml:"query"`
	Hosts       []string `xml:"host"`
	History     bool     `xml:"history,attr,omitempty"`
	Predictions bool     `xml:"predictions,attr,omitempty"`
}

type xmlSample struct {
	T    int64   `xml:"t,attr"` // unix nanoseconds
	Bits float64 `xml:"bits,attr"`
}

type xmlSeries struct {
	From    string      `xml:"from,attr"`
	To      string      `xml:"to,attr"`
	Samples []xmlSample `xml:"sample"`
}

type xmlStep struct {
	V  float64 `xml:"v,attr"`
	Ev float64 `xml:"ev,attr"`
}

type xmlForecast struct {
	From  string    `xml:"from,attr"`
	To    string    `xml:"to,attr"`
	Steps []xmlStep `xml:"step"`
}

type xmlResult struct {
	XMLName   xml.Name      `xml:"result"`
	Graph     innerXML      `xml:"topology"`
	Series    []xmlSeries   `xml:"history>series"`
	Forecasts []xmlForecast `xml:"predictions>forecast"`
}

// innerXML captures the topology element verbatim so the topology
// package's own codec handles it.
type innerXML struct {
	Raw []byte `xml:",innerxml"`
}

// encodeResultXML renders a collector result.
func encodeResultXML(res *collector.Result) ([]byte, error) {
	var gbuf bytes.Buffer
	if err := res.Graph.EncodeXML(&gbuf); err != nil {
		return nil, err
	}
	// The graph encoding is <topology>…</topology> and nothing else;
	// <result> carries what is between the two tags verbatim.
	inner, ok := bytes.CutPrefix(gbuf.Bytes(), []byte("<topology>"))
	if ok {
		inner, ok = bytes.CutSuffix(inner, []byte("</topology>"))
	}
	if !ok {
		return nil, errors.New("proto: graph encoding is not one <topology> element")
	}
	out := xmlResult{Graph: innerXML{Raw: inner}}
	for _, k := range sortedKeys(res.History) {
		s := xmlSeries{From: k.From, To: k.To}
		for _, smp := range res.History[k] {
			s.Samples = append(s.Samples, xmlSample{T: smp.T.UnixNano(), Bits: smp.Bits})
		}
		out.Series = append(out.Series, s)
	}
	for _, k := range sortedKeys(res.Predictions) {
		fc := res.Predictions[k]
		xf := xmlForecast{From: k.From, To: k.To}
		for i := range fc.Values {
			ev := 0.0
			if i < len(fc.ErrVar) {
				ev = fc.ErrVar[i]
			}
			xf.Steps = append(xf.Steps, xmlStep{V: fc.Values[i], Ev: ev})
		}
		out.Forecasts = append(out.Forecasts, xf)
	}
	return xml.MarshalIndent(out, "", " ")
}

// decodeResultXML parses a result document.
func decodeResultXML(b []byte) (*collector.Result, error) {
	var in xmlResult
	if err := xml.Unmarshal(b, &in); err != nil {
		return nil, err
	}
	gdoc := append([]byte("<topology>"), in.Graph.Raw...)
	gdoc = append(gdoc, []byte("</topology>")...)
	g, err := topology.DecodeXML(bytes.NewReader(gdoc))
	if err != nil {
		return nil, err
	}
	res := &collector.Result{Graph: g}
	if len(in.Series) > 0 {
		res.History = make(map[collector.HistKey][]collector.Sample, len(in.Series))
		for _, s := range in.Series {
			var ss []collector.Sample
			for _, smp := range s.Samples {
				ss = append(ss, collector.Sample{T: time.Unix(0, smp.T), Bits: smp.Bits})
			}
			res.History[collector.HistKey{From: s.From, To: s.To}] = ss
		}
	}
	if len(in.Forecasts) > 0 {
		res.Predictions = make(map[collector.HistKey]collector.Forecast, len(in.Forecasts))
		for _, xf := range in.Forecasts {
			fc := collector.Forecast{}
			for _, st := range xf.Steps {
				fc.Values = append(fc.Values, st.V)
				fc.ErrVar = append(fc.ErrVar, st.Ev)
			}
			res.Predictions[collector.HistKey{From: xf.From, To: xf.To}] = fc
		}
	}
	return res, nil
}

// HTTPServer serves a collector over the XML protocol at POST /query
// and, with a watch registry attached, subscriptions as Server-Sent
// Events at GET /watch.
type HTTPServer struct {
	Collector collector.Interface

	// Watch, when set, enables GET /watch (see watch.go). Set before
	// ListenAndServe.
	Watch *watch.Registry

	// Flows, when set, enables POST /flows (server-side flow answers;
	// see flows.go). Set before ListenAndServe.
	Flows FlowAnswerer

	// Admission, when set, gates /query, /flows and /watch through the
	// multi-tenant admission controller; requests identify themselves
	// with the X-Remos-Tenant headers (see admission.go). Nil servers
	// admit everything. Set before ListenAndServe.
	Admission *admission.Controller

	// Obs, when set, receives request counters and latency histograms
	// (labeled proto="xml"). Traces, when set, records one trace per
	// served query for /debug/queries. Set both before ListenAndServe.
	Obs    *obs.Registry
	Traces *obs.Ring

	core core
	srv  *http.Server
	ln   net.Listener
}

// ListenAndServe binds addr and serves in the background, returning the
// bound address.
func (s *HTTPServer) ListenAndServe(addr string) (string, error) {
	s.core = newCore("xml", s.Collector, s.Flows, s.Watch, s.Admission, s.Obs, s.Traces)
	mux := http.NewServeMux()
	mux.Handle("/query", handler(s.handleQuery))
	mux.Handle("/watch", handler(s.handleWatch))
	mux.Handle("/flows", handler(s.handleFlows))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	// A peer that never finishes its request header is dropped, not
	// left holding a goroutine.
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: httpTimeout}
	//remoslint:allow goctx http.Server.Serve returns when Close shuts the server down
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// httpError is a failure of the HTTP exchange itself — the wrong method,
// an answer that cannot be encoded or streamed — carrying the status
// that no error class implies.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// writeHTTPError is the codec's one error writer. The status follows
// from the failure: what the collector or answerer behind the server
// returned is relayed verbatim as 502; what the server raised itself
// answers by its class (a shed is 429, bad credentials 401, any other
// class 503) or, unclassified, as the client's malformed request (400),
// without this package's message prefix, which HTTP bodies never
// carried. Class and retry-after hint travel as headers either way.
func writeHTTPError(w http.ResponseWriter, err error) {
	status, msg, code := http.StatusBadGateway, err.Error(), rerr.Code(err)
	var (
		up *upstreamError
		he *httpError
	)
	switch {
	case errors.As(err, &up):
	case errors.As(err, &he):
		status = he.status
	default:
		msg = strings.TrimPrefix(msg, "proto: ")
		switch code {
		case "":
			status = http.StatusBadRequest
		case rerr.CodeOverloaded:
			status = http.StatusTooManyRequests
		case rerr.CodeUnauthenticated:
			status = http.StatusUnauthorized
		default:
			status = http.StatusServiceUnavailable
		}
	}
	if code != "" {
		w.Header().Set(errorCodeHeader, code)
	}
	if d, ok := rerr.RetryAfter(err); ok {
		w.Header().Set("Retry-After", strconv.FormatInt(int64((d+time.Second-1)/time.Second), 10))
		w.Header().Set(retryAfterHeader, strconv.FormatInt(int64((d+time.Millisecond-1)/time.Millisecond), 10))
	}
	http.Error(w, msg, status)
}

// handler adapts a verb handler, which returns the failure it could not
// answer, to net/http: the codec has one place errors are written.
type handler func(http.ResponseWriter, *http.Request) error

func (h handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if err := h(w, r); err != nil {
		writeHTTPError(w, err)
	}
}

// writeXML sends an encoded answer, or returns the encoder's failure.
func writeXML(w http.ResponseWriter, out []byte, err error) error {
	if err != nil {
		return &httpError{http.StatusInternalServerError, err.Error()}
	}
	w.Header()["Content-Type"] = xmlContentType
	w.Write(out)
	return nil
}

// xmlContentType is shared by every answer; nothing mutates a header
// value in place.
var xmlContentType = []string{"application/xml"}

// identify resolves a request's tenant identity and tier from its
// X-Remos-Tenant headers.
func (s *HTTPServer) identify(r *http.Request) (admission.Tenant, admission.Tier, error) {
	return s.core.identify(r.Header.Get(tenantHeader), r.Header.Get(tenantKeyHeader), r.Header.Get(priorityHeader))
}

// admitPost runs what precedes the verb of a POST exchange, in HTTP's
// order — identity, admission, and only then the body, so a shed request
// costs no read — and hands the body to decode, which must not retain
// it. On success the caller must call release when the request finishes.
func (s *HTTPServer) admitPost(r *http.Request, decode func(body []byte) error) (release func(), err error) {
	if r.Method != http.MethodPost {
		return nil, &httpError{http.StatusMethodNotAllowed, "POST required"}
	}
	ten, tier, err := s.identify(r)
	if err != nil {
		return nil, err
	}
	if release, err = s.core.admit(r.Context(), ten, tier); err != nil {
		return nil, err
	}
	buf := respPool.Get().(*bytes.Buffer)
	defer respPool.Put(buf)
	if err = readBody(buf, r.Body, 0, 16<<20); err == nil {
		err = decode(buf.Bytes())
	}
	if err != nil {
		release()
		return nil, err
	}
	return release, nil
}

// readBody reads r to its end into buf, or to limit bytes, whichever
// comes first. hint sizes the buffer up front: the length a peer that is
// trusted with that much memory announced, or nothing.
func readBody(buf *bytes.Buffer, r io.Reader, hint, limit int64) error {
	buf.Reset()
	buf.Grow(int(min(max(hint, 0), limit)) + bytes.MinRead) // room for the read that finds the end
	for int64(buf.Len()) < limit {
		buf.Grow(bytes.MinRead)
		p := buf.AvailableBuffer()
		n, err := r.Read(p[:min(int64(cap(p)), limit-int64(buf.Len()))])
		buf.Write(p[:n])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *HTTPServer) handleQuery(w http.ResponseWriter, r *http.Request) error {
	var q collector.Query
	release, err := s.admitPost(r, func(body []byte) (err error) {
		q, err = decodeQuery(body)
		return err
	})
	if err != nil {
		return err
	}
	defer release()
	// The HTTP request context carries the client's disconnect, so an
	// abandoned query cancels its fan-out.
	res, tr, err := s.core.query(q.WithContext(r.Context()))
	if err != nil {
		return err
	}
	sp := tr.Start("encode")
	out, err := encodeResultXML(res)
	sp.End()
	s.core.traces.Observe(tr)
	return writeXML(w, out, err)
}

// Close stops the server.
func (s *HTTPServer) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// HTTPClient is a collector.Interface speaking the XML protocol.
type HTTPClient struct {
	// BaseURL is e.g. "http://host:port".
	BaseURL string
	// Client overrides the HTTP client. Without one, a request whose
	// context carries no deadline gets 10 seconds.
	Client *http.Client

	// Tenant/TenantKey identify this client to the server's admission
	// layer; Priority ("interactive" or "batch") sets its default
	// queue tier. Carried as X-Remos-Tenant headers on every request
	// (see admission.go); servers without an admission controller
	// ignore them.
	Tenant    string
	TenantKey string
	Priority  string

	tmpl atomic.Pointer[postTemplates]
}

// httpTimeout bounds an exchange nobody else bounds: a request through
// the default client whose context has no deadline, and a peer's request
// header on the server.
const httpTimeout = 10 * time.Second

// defaultHTTPClient serves every HTTPClient without one of its own. It
// has no Timeout: post bounds the exchange through the context, and a
// watch stream is long-lived.
var defaultHTTPClient = &http.Client{}

// postTemplates holds what every POST of one client repeats — the
// parsed URL per verb and the header set — as requests to copy. They
// and their header map are shared by every exchange and never written.
type postTemplates struct {
	from         templateFields
	query, flows *http.Request
}

// templateFields are the client fields the templates are built from.
type templateFields struct{ baseURL, tenant, key, priority string }

// templates returns the client's request templates, building them on
// first use and again if a field they derive from has changed since.
func (c *HTTPClient) templates() (*postTemplates, error) {
	from := templateFields{c.BaseURL, c.Tenant, c.TenantKey, c.Priority}
	t := c.tmpl.Load()
	if t != nil && t.from == from {
		return t, nil
	}
	t = &postTemplates{from: from}
	var err error
	if t.query, err = http.NewRequest(http.MethodPost, c.BaseURL+"/query", nil); err != nil {
		return nil, err
	}
	if t.flows, err = http.NewRequest(http.MethodPost, c.BaseURL+"/flows", nil); err != nil {
		return nil, err
	}
	t.query.Header.Set("Content-Type", "application/xml")
	setTenantHeaders(t.query, c.Tenant, c.TenantKey, c.Priority)
	t.flows.Header = t.query.Header
	c.tmpl.Store(t)
	return t, nil
}

// Name implements collector.Interface.
func (c *HTTPClient) Name() string { return "remote-xml:" + c.BaseURL }

// exchange sends one request through hc and returns its 200 response,
// the body still unread (the caller closes it). Everything else comes
// back as an error classified the same way as the ASCII client's (see
// failed), a non-200 answer decoded to the class and retry hint the
// server attached.
func (c *HTTPClient) exchange(caller context.Context, hc *http.Client, req *http.Request) (*http.Response, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return nil, c.failed(caller, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		return nil, decodeHTTPError(resp, fmt.Sprintf("proto: remote error (%d): %s", resp.StatusCode, bytes.TrimSpace(msg)))
	}
	return resp, nil
}

// failed classifies the failure of an exchange made on behalf of
// caller, the context the client was handed: the caller's own
// cancellation or deadline comes back as is; a deadline the caller did
// not set — the default one post adds — is the TIMEOUT class, as it was
// when http.Client.Timeout enforced it; any other failure to reach the
// server goes by its network class.
func (c *HTTPClient) failed(caller context.Context, err error) error {
	if cerr := caller.Err(); cerr != nil {
		return cerr
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return rerr.Tagf(rerr.ErrTimeout, "proto: %s: %w", c.BaseURL, err)
	}
	return classifyClientErr(c.BaseURL, err)
}

// post runs one XML request/response exchange from a template and hands
// the answer document to decode, which must not retain it. body must
// stay untouched after the call: the transport may read it later still.
func (c *HTTPClient) post(ctx context.Context, tmpl *http.Request, body []byte, decode func([]byte) error) error {
	caller, hc, header := ctx, c.Client, tmpl.Header
	if hc != nil {
		header = header.Clone() // a caller's client may write to it (a cookie jar does)
	} else {
		hc = defaultHTTPClient
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, httpTimeout)
			defer cancel()
		}
	}
	req := tmpl.WithContext(ctx)
	req.Header = header
	req.ContentLength = int64(len(body))
	// The body types net/http knows to be in memory, so that header and
	// body leave in one write, and replayable on a stale connection.
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	req.Body, _ = req.GetBody()
	resp, err := c.exchange(caller, hc, req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := respPool.Get().(*bytes.Buffer)
	defer respPool.Put(buf)
	if err := readBody(buf, resp.Body, resp.ContentLength, 64<<20); err != nil {
		return c.failed(caller, err)
	}
	return decode(buf.Bytes())
}

// Collect implements collector.Interface. The query's context rides the
// HTTP request, so deadlines and cancellation propagate to the server.
func (c *HTTPClient) Collect(q collector.Query) (*collector.Result, error) {
	tmpl, err := c.templates()
	if err != nil {
		return nil, err
	}
	xq := xmlQuery{History: q.WithHistory, Predictions: q.WithPredictions}
	for _, h := range q.Hosts {
		xq.Hosts = append(xq.Hosts, h.String())
	}
	body, err := xml.Marshal(xq)
	if err != nil {
		return nil, err
	}
	var res *collector.Result
	err = c.post(q.Context(), tmpl.query, body, func(out []byte) (err error) {
		res, err = decodeResultXML(out)
		return err
	})
	return res, err
}
