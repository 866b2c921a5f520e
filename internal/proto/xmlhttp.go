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
	"net/netip"
	"strconv"
	"strings"
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
	// Re-parse to splice the topology element inside <result>: simplest
	// correct composition without hand-writing XML.
	out := xmlResult{}
	// Strip the outer <topology> wrapper from the graph encoding; keep
	// its inner content.
	var probe struct {
		Inner []byte `xml:",innerxml"`
	}
	if err := xml.Unmarshal(gbuf.Bytes(), &probe); err != nil {
		return nil, err
	}
	out.Graph = innerXML{Raw: probe.Inner}
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
	s.srv = &http.Server{Handler: mux}
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
	w.Header().Set("Content-Type", "application/xml")
	w.Write(out)
	return nil
}

// identify resolves a request's tenant identity and tier from its
// X-Remos-Tenant headers.
func (s *HTTPServer) identify(r *http.Request) (admission.Tenant, admission.Tier, error) {
	return s.core.identify(r.Header.Get(tenantHeader), r.Header.Get(tenantKeyHeader), r.Header.Get(priorityHeader))
}

// admitPost runs what precedes the verb of a POST exchange, in HTTP's
// order — identity, admission, and only then the body, so a shed request
// costs no read — decoding the XML body into req. On success the caller
// must call release when the request finishes.
func (s *HTTPServer) admitPost(r *http.Request, req any) (release func(), err error) {
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
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err == nil {
		err = xml.Unmarshal(body, req)
	}
	if err != nil {
		release()
		return nil, err
	}
	return release, nil
}

func (s *HTTPServer) handleQuery(w http.ResponseWriter, r *http.Request) error {
	var xq xmlQuery
	release, err := s.admitPost(r, &xq)
	if err != nil {
		return err
	}
	defer release()
	q := collector.Query{WithHistory: xq.History, WithPredictions: xq.Predictions}
	for _, h := range xq.Hosts {
		a, err := netip.ParseAddr(h)
		if err != nil {
			return fmt.Errorf("proto: bad host %q", h)
		}
		q.Hosts = append(q.Hosts, a)
	}
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
	// Client overrides the HTTP client (default: 10s timeout).
	Client *http.Client

	// Tenant/TenantKey identify this client to the server's admission
	// layer; Priority ("interactive" or "batch") sets its default
	// queue tier. Carried as X-Remos-Tenant headers on every request
	// (see admission.go); servers without an admission controller
	// ignore them.
	Tenant    string
	TenantKey string
	Priority  string
}

// Name implements collector.Interface.
func (c *HTTPClient) Name() string { return "remote-xml:" + c.BaseURL }

// exchange sends one request through hc and returns its 200 response,
// the body still unread (the caller closes it). Everything else comes
// back as an error classified the same way as the ASCII client's: the
// caller's own cancellation as is, a failure to reach the server by its
// network class, and a non-200 answer decoded to the class and retry
// hint the server attached.
func (c *HTTPClient) exchange(ctx context.Context, hc *http.Client, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/xml")
	}
	setTenantHeaders(req, c.Tenant, c.TenantKey, c.Priority)
	resp, err := hc.Do(req)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, classifyClientErr(c.BaseURL, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		return nil, decodeHTTPError(resp, fmt.Sprintf("proto: remote error (%d): %s", resp.StatusCode, bytes.TrimSpace(msg)))
	}
	return resp, nil
}

// post runs one XML request/response exchange and returns the answer
// document.
func (c *HTTPClient) post(ctx context.Context, path string, req any) ([]byte, error) {
	body, err := xml.Marshal(req)
	if err != nil {
		return nil, err
	}
	hc := c.Client
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	resp, err := c.exchange(ctx, hc, http.MethodPost, path, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, classifyClientErr(c.BaseURL, err)
	}
	return out, nil
}

// Collect implements collector.Interface. The query's context rides the
// HTTP request, so deadlines and cancellation propagate to the server.
func (c *HTTPClient) Collect(q collector.Query) (*collector.Result, error) {
	xq := xmlQuery{History: q.WithHistory, Predictions: q.WithPredictions}
	for _, h := range q.Hosts {
		xq.Hosts = append(xq.Hosts, h.String())
	}
	out, err := c.post(q.Context(), "/query", xq)
	if err != nil {
		return nil, err
	}
	return decodeResultXML(out)
}
