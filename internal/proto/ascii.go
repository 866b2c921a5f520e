// Package proto implements the two Remos component protocols: the
// original line-oriented ASCII protocol over TCP ("a simple ASCII
// protocol", Section 3.2) and the XML-over-HTTP protocol the paper
// describes transitioning to, which additionally carries measurement
// history so modelers can drive prediction from collector-side data.
//
// Both protocols expose any collector.Interface remotely, and both client
// types implement collector.Interface, so a remote Master Collector plugs
// into a Modeler exactly like a local one.
package proto

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"

	"remos/internal/admission"
	"remos/internal/collector"
	"remos/internal/conc"
	"remos/internal/lines"
	"remos/internal/modeler"
	"remos/internal/obs"
	"remos/internal/rerr"
	"remos/internal/topology"
	"remos/internal/watch"
)

// writeQuery sends one ASCII query. The third header flag (predictions)
// extends the original protocol; servers and clients accept both forms.
// The request renders into a pooled buffer (bytes.Buffer.Write does not
// leak its argument, so the number scratch stays on the stack) and goes
// out as one Write, so the steady-state path allocates nothing and the
// request hits the wire in a single segment.
func writeQuery(w io.Writer, q collector.Query) error {
	hist, pred := int64(0), int64(0)
	if q.WithHistory {
		hist = 1
	}
	if q.WithPredictions {
		pred = 1
	}
	buf := respPool.Get().(*bytes.Buffer)
	defer respPool.Put(buf)
	buf.Reset()
	buf.WriteString("QUERY ")
	bufInt(buf, int64(len(q.Hosts)))
	buf.WriteByte(' ')
	bufInt(buf, hist)
	buf.WriteByte(' ')
	bufInt(buf, pred)
	buf.WriteByte('\n')
	var tmp [48]byte
	for _, h := range q.Hosts {
		buf.Write(h.AppendTo(tmp[:0]))
		buf.WriteByte('\n')
	}
	buf.WriteString("END\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// readQuery parses one ASCII query; io.EOF on a cleanly closed connection.
func readQuery(r *bufio.Reader, scratch *[]byte) (collector.Query, error) {
	line, err := lines.Read(r, scratch)
	if err != nil {
		return collector.Query{}, err
	}
	return readQueryBody(line, r, scratch)
}

// readQueryBody parses a query whose header line was already consumed —
// the server's verb dispatch reads one line to tell QUERY from WATCH.
// The line aliases the reader's buffer; nothing here retains it.
func readQueryBody(line []byte, r *bufio.Reader, scratch *[]byte) (collector.Query, error) {
	badHeader := func() error {
		return fmt.Errorf("proto: bad query header %q", bytes.TrimSpace(line))
	}
	var f [4][]byte
	nf := lines.Split(line, f[:])
	if nf < 3 || nf > len(f) || string(f[0]) != "QUERY" {
		return collector.Query{}, badHeader()
	}
	var nums [3]int64
	for i, tok := range f[1:nf] {
		v, ok := parseInt(tok)
		if !ok {
			return collector.Query{}, badHeader()
		}
		nums[i] = v
	}
	n, hist, pred := nums[0], nums[1], nums[2]
	if n < 0 || n > 1<<20 {
		return collector.Query{}, fmt.Errorf("proto: absurd host count %d", n)
	}
	q := collector.Query{WithHistory: hist != 0, WithPredictions: pred != 0}
	if n > 0 {
		q.Hosts = make([]netip.Addr, 0, n)
	}
	for i := int64(0); i < n; i++ {
		line, err := lines.Read(r, scratch)
		if err != nil {
			return collector.Query{}, err
		}
		host := bytes.TrimSpace(line)
		a, ok := attrAddr(host)
		if !ok {
			return collector.Query{}, fmt.Errorf("proto: bad host %q: %w", host, addrErr(host))
		}
		q.Hosts = append(q.Hosts, a)
	}
	line, err := lines.Read(r, scratch)
	if err != nil {
		return collector.Query{}, err
	}
	if !bytes.Equal(bytes.TrimSpace(line), []byte("END")) {
		return collector.Query{}, fmt.Errorf("proto: missing END, got %q", bytes.TrimSpace(line))
	}
	return q, nil
}

// sortedKeys returns a series map's keys in (From, To) order, the order
// both codecs render them in.
func sortedKeys[V any](m map[collector.HistKey]V) []collector.HistKey {
	keys := make([]collector.HistKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].From != keys[j].From {
			return keys[i].From < keys[j].From
		}
		return keys[i].To < keys[j].To
	})
	return keys
}

// writeResult renders one ASCII result into the response buffer. The
// per-sample lines go through append-based formatting, not fmt, because
// a history-bearing answer can carry thousands of them.
func writeResult(buf *bytes.Buffer, res *collector.Result) error {
	buf.WriteString("OK\n")
	// The graph is encoded straight into the buffer's spare room. Text
	// that outgrew it leaves the buffer as roomy as the text asked for, so
	// the pooled buffer takes the next reply this size in place.
	room := buf.AvailableBuffer()
	text, err := res.Graph.AppendText(room)
	if err != nil {
		return err
	}
	if cap(text) > cap(room) {
		buf.Grow(cap(text))
	}
	buf.Write(text)
	keys := sortedKeys(res.History)
	buf.WriteString("HISTORY ")
	bufInt(buf, int64(len(keys)))
	buf.WriteByte('\n')
	for _, k := range keys {
		ss := res.History[k]
		buf.WriteString("HIST ")
		buf.WriteString(k.From)
		buf.WriteByte(' ')
		buf.WriteString(k.To)
		buf.WriteByte(' ')
		bufInt(buf, int64(len(ss)))
		buf.WriteByte('\n')
		for _, s := range ss {
			bufInt(buf, s.T.UnixNano())
			buf.WriteByte(' ')
			bufFloat(buf, s.Bits)
			buf.WriteByte('\n')
		}
	}
	if len(res.Predictions) > 0 {
		pkeys := sortedKeys(res.Predictions)
		buf.WriteString("PREDICTIONS ")
		bufInt(buf, int64(len(pkeys)))
		buf.WriteByte('\n')
		for _, k := range pkeys {
			f := res.Predictions[k]
			buf.WriteString("PRED ")
			buf.WriteString(k.From)
			buf.WriteByte(' ')
			buf.WriteString(k.To)
			buf.WriteByte(' ')
			bufInt(buf, int64(len(f.Values)))
			buf.WriteByte('\n')
			for i := range f.Values {
				ev := 0.0
				if i < len(f.ErrVar) {
					ev = f.ErrVar[i]
				}
				bufFloat(buf, f.Values[i])
				buf.WriteByte(' ')
				bufFloat(buf, ev)
				buf.WriteByte('\n')
			}
		}
	}
	buf.WriteString("DONE\n")
	return nil
}

// writeError reports a failure as "ERR <CODE> message" when the error
// carries a wire code, "ERR message" otherwise — the original untyped
// form, which old clients keep understanding either way (an unknown
// first token reads as part of the message). An admission shed
// additionally carries its retry hint as a RETRY=<ms> token, which old
// clients likewise fold into the message.
func writeError(w io.Writer, err error) {
	msg := strings.ReplaceAll(err.Error(), "\n", " ")
	code := rerr.Code(err)
	if code == "" {
		fmt.Fprintf(w, "ERR %s\n", msg)
		return
	}
	if d, ok := rerr.RetryAfter(err); ok {
		fmt.Fprintf(w, "ERR %s RETRY=%d %s\n", code, int64((d+time.Millisecond-1)/time.Millisecond), msg)
		return
	}
	fmt.Fprintf(w, "ERR %s %s\n", code, msg)
}

// maxPresize bounds every capacity the ASCII readers (readResult,
// readFlowsResult and the server's readFlowsBody) take from a count the
// peer declares. A count is only a claim: its lines still have to arrive
// one by one, so the presize covers an honest reply of modest size and
// the line loop grows the rest as it reads, while a reply declaring
// 10^18 samples and sending none costs no more than one declaring 1024.
const maxPresize = 1024

// presize is a peer-declared count as a capacity hint, at most maxPresize.
func presize(n int64) int { return int(min(n, maxPresize)) }

// readResult parses one ASCII result. The graph is decoded off r itself
// (topology.DecodeText reads a bufio.Reader in place and stops after
// END), and per-sample lines are scanned in place; only the strings the
// Result retains (IDs, keys, error text) are materialized.
func readResult(r *bufio.Reader, scratch *[]byte) (*collector.Result, error) {
	line, err := lines.Read(r, scratch)
	if err != nil {
		return nil, err
	}
	head := bytes.TrimSpace(line)
	if bytes.HasPrefix(head, []byte("ERR ")) {
		return nil, decodeErrLine(string(head[len("ERR "):]))
	}
	if !bytes.Equal(head, []byte("OK")) {
		return nil, fmt.Errorf("proto: unexpected response %q", head)
	}
	g, err := topology.DecodeText(r)
	if err != nil {
		return nil, err
	}
	res := &collector.Result{Graph: g}
	line, err = lines.Read(r, scratch)
	if err != nil {
		return nil, err
	}
	var f [4][]byte
	nf := lines.Split(line, f[:2])
	nk, ok := parseInt(f[1])
	if nf != 2 || string(f[0]) != "HISTORY" || !ok || nk < 0 {
		return nil, fmt.Errorf("proto: bad history header %q", bytes.TrimSpace(line))
	}
	if nk > 0 {
		res.History = make(map[collector.HistKey][]collector.Sample, presize(nk))
	}
	for i := int64(0); i < nk; i++ {
		line, err := lines.Read(r, scratch)
		if err != nil {
			return nil, err
		}
		nf := lines.Split(line, f[:])
		m, ok := parseInt(f[3])
		if nf != 4 || string(f[0]) != "HIST" || !ok || m < 0 {
			return nil, fmt.Errorf("proto: bad HIST line %q", bytes.TrimSpace(line))
		}
		key := collector.HistKey{From: string(f[1]), To: string(f[2])}
		samples := make([]collector.Sample, 0, presize(m))
		for j := int64(0); j < m; j++ {
			line, err := lines.Read(r, scratch)
			if err != nil {
				return nil, err
			}
			nf := lines.Split(line, f[:2])
			ns, ok1 := parseInt(f[0])
			bits, ok2 := parseFloat(f[1])
			if nf != 2 || !ok1 || !ok2 {
				return nil, fmt.Errorf("proto: bad sample line %q", bytes.TrimSpace(line))
			}
			samples = append(samples, collector.Sample{T: time.Unix(0, ns), Bits: bits})
		}
		res.History[key] = samples
	}
	line, err = lines.Read(r, scratch)
	if err != nil {
		return nil, err
	}
	trail := bytes.TrimSpace(line)
	if bytes.HasPrefix(trail, []byte("PREDICTIONS ")) {
		nk, ok := parseInt(trail[len("PREDICTIONS "):])
		if !ok || nk < 0 {
			return nil, fmt.Errorf("proto: bad predictions header %q", trail)
		}
		if nk > 0 {
			res.Predictions = make(map[collector.HistKey]collector.Forecast, presize(nk))
		}
		for i := int64(0); i < nk; i++ {
			line, err := lines.Read(r, scratch)
			if err != nil {
				return nil, err
			}
			nf := lines.Split(line, f[:])
			h, ok := parseInt(f[3])
			if nf != 4 || string(f[0]) != "PRED" || !ok || h < 0 {
				return nil, fmt.Errorf("proto: bad PRED line %q", bytes.TrimSpace(line))
			}
			key := collector.HistKey{From: string(f[1]), To: string(f[2])}
			fc := collector.Forecast{
				Values: make([]float64, 0, presize(h)),
				ErrVar: make([]float64, 0, presize(h)),
			}
			for j := int64(0); j < h; j++ {
				line, err := lines.Read(r, scratch)
				if err != nil {
					return nil, err
				}
				nf := lines.Split(line, f[:2])
				v, ok1 := parseFloat(f[0])
				ev, ok2 := parseFloat(f[1])
				if nf != 2 || !ok1 || !ok2 {
					return nil, fmt.Errorf("proto: bad forecast line %q", bytes.TrimSpace(line))
				}
				fc.Values = append(fc.Values, v)
				fc.ErrVar = append(fc.ErrVar, ev)
			}
			res.Predictions[key] = fc
		}
		line, err = lines.Read(r, scratch)
		if err != nil {
			return nil, err
		}
		trail = bytes.TrimSpace(line)
	}
	if !bytes.Equal(trail, []byte("DONE")) {
		return nil, fmt.Errorf("proto: missing DONE trailer")
	}
	return res, nil
}

// TCPServer serves a collector over the ASCII protocol. Connections are
// persistent: a modeler can issue many queries over one connection, and
// with a watch registry attached the same connection also speaks the
// WATCH/UPDATE/UNWATCH verb set (see watch.go for the grammar).
type TCPServer struct {
	Collector collector.Interface

	// Watch, when set, enables the WATCH verb set against this
	// subscription registry. Nil servers answer WATCH with a typed
	// UNAVAILABLE error. Set before ListenAndServe.
	Watch *watch.Registry

	// Flows, when set, enables the FLOWS verb (server-side flow
	// answers; see flows.go). Nil servers answer FLOWS with a typed
	// UNAVAILABLE error. Set before ListenAndServe.
	Flows FlowAnswerer

	// Admission, when set, gates every QUERY/FLOWS/WATCH through the
	// multi-tenant admission controller; connections identify
	// themselves with the TENANT preamble (see admission.go). Nil
	// servers admit everything. Set before ListenAndServe.
	Admission *admission.Controller

	// Obs, when set, receives request counters and latency histograms
	// (labeled proto="ascii"). Traces, when set, records one trace per
	// served query for /debug/queries. Set both before ListenAndServe.
	Obs    *obs.Registry
	Traces *obs.Ring

	core   core
	ln     *conc.Listener
	drains sync.WaitGroup // watch drains, which outlive their connection's serve loop
}

// ListenAndServe binds addr ("127.0.0.1:0" for ephemeral) and serves in
// the background, returning the bound address.
func (s *TCPServer) ListenAndServe(addr string) (string, error) {
	s.core = newCore("ascii", s.Collector, s.Flows, s.Watch, s.Admission, s.Obs, s.Traces)
	ln, err := conc.Listen(addr, func(conn net.Conn) { s.serveConn(conn, conn) })
	if err != nil {
		return "", err
	}
	s.ln = ln
	return ln.Addr(), nil
}

// asciiConn is the state of one served connection.
type asciiConn struct {
	srv     *TCPServer
	r       *bufio.Reader
	scratch []byte
	flowBuf []modeler.Flow // every FLOWS request's flows, decoded in place (readFlowsBody)
	// Whole messages are serialized through one writer so async UPDATE
	// lines never interleave mid-response.
	w    lockedWriter
	subs map[int64]*watch.Subscription
	// Connections start anonymous; a TENANT preamble swaps in the
	// authenticated identity and default tier.
	ten  admission.Tenant
	tier admission.Tier
}

// serveConn is the per-connection loop: one request line picks the verb,
// the verb's handler decodes the rest, runs the core steps and encodes
// the answer. It returns when the peer hangs up or sends something that
// leaves the stream unaligned.
func (s *TCPServer) serveConn(rd io.Reader, wr io.Writer) {
	c := &asciiConn{srv: s, w: lockedWriter{w: wr}, subs: make(map[int64]*watch.Subscription)}
	c.ten, c.tier, _ = s.core.identify("", "", "")
	c.r = readerPool.Get().(*bufio.Reader)
	c.r.Reset(rd)
	defer func() {
		for _, sub := range c.subs {
			sub.Close(nil) // disconnect tears down every watch
		}
		c.r.Reset(emptyReader{}) // drop the connection reference before pooling
		readerPool.Put(c.r)
	}()
	for {
		line, err := lines.Read(c.r, &c.scratch)
		if err != nil {
			return // EOF: drop the connection
		}
		verb, _ := lines.Cut(line)
		var keep bool
		switch string(verb) {
		case "TENANT":
			keep, err = c.tenant(line)
		case "WATCH":
			keep, err = true, c.watch(line)
		case "UNWATCH":
			keep, err = true, c.unwatch(line)
		case "FLOWS":
			keep, err = c.flows(line)
		default:
			keep, err = c.query(line)
		}
		if err != nil {
			writeError(&c.w, err)
		}
		if !keep {
			return
		}
	}
}

// query serves one QUERY exchange. Like every verb handler it returns
// the failure to answer with, if any; keep reports whether the stream is
// still aligned on a request boundary.
func (c *asciiConn) query(line []byte) (keep bool, err error) {
	q, err := readQueryBody(line, c.r, &c.scratch)
	if err != nil {
		return false, nil // garbage: drop the connection
	}
	// Admit after the body is consumed so a shed leaves the connection
	// aligned on the next request. The protocol carries no per-request
	// context, so the queue wait is bounded by the controller alone.
	release, err := c.srv.core.admit(context.Background(), c.ten, c.tier)
	if err != nil {
		return true, err
	}
	res, tr, err := c.srv.core.query(q)
	release()
	if err != nil {
		return true, err
	}
	sp := tr.Start("encode")
	buf := respPool.Get().(*bytes.Buffer)
	buf.Reset()
	werr := writeResult(buf, res)
	sp.End()
	c.srv.core.traces.Observe(tr)
	if werr == nil {
		_, werr = c.w.Write(buf.Bytes())
	}
	respPool.Put(buf)
	return werr == nil, nil
}

// Close stops the server: the listener and every live connection are
// closed, and Close returns once the connections' exchanges in flight
// and their watch drains have finished.
func (s *TCPServer) Close() error {
	err := s.ln.Close()
	s.drains.Wait()
	return err
}

// TCPClient is a collector.Interface speaking the ASCII protocol to a
// remote server, reconnecting on demand.
type TCPClient struct {
	Addr string
	// Timeout bounds each query round trip (default 10s).
	Timeout time.Duration

	// Tenant/TenantKey identify this client to the server's admission
	// layer; Priority ("interactive" or "batch") sets its default
	// queue tier. When any is set, every fresh connection opens with a
	// TENANT preamble (see admission.go). Older servers without an
	// admission controller accept the preamble silently.
	Tenant    string
	TenantKey string
	Priority  string

	mu      sync.Mutex
	conn    net.Conn
	r       *bufio.Reader
	scratch []byte
}

// Name implements collector.Interface.
func (c *TCPClient) Name() string { return "remote-ascii:" + c.Addr }

// Collect implements collector.Interface. The query's context bounds
// the round trip: its deadline tightens the connection deadline, and a
// cancellation unblocks an in-flight read immediately. Failures are
// classified — remote errors keep their wire code, local timeouts carry
// the TIMEOUT class, connection failures the UNAVAILABLE class.
func (c *TCPClient) Collect(q collector.Query) (*collector.Result, error) {
	var res *collector.Result
	err := c.exchange(q.Context(), func(w io.Writer) error {
		return writeQuery(w, q)
	}, func(r *bufio.Reader, scratch *[]byte) error {
		var rdErr error
		res, rdErr = readResult(r, scratch)
		return rdErr
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// dial opens a connection and, for a tenant-configured client, sends the
// TENANT preamble. The preamble is silent on success, so it pipelines
// ahead of the first request at no round-trip cost; an auth failure
// surfaces as the typed ERR answer to that request.
func (c *TCPClient) dial(timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", c.Addr, timeout)
	if err != nil {
		return nil, err
	}
	if p := preambleLine(c.Tenant, c.TenantKey, c.Priority); p != "" {
		if _, err := io.WriteString(conn, p); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return conn, nil
}

// exchange runs one request/response round trip under the client lock
// with the shared deadline, cancellation-watcher, and reconnect-once
// discipline. send writes the request; recv reads the response off the
// client's pooled reader.
func (c *TCPClient) exchange(ctx context.Context, send func(io.Writer) error, recv func(*bufio.Reader, *[]byte) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	try := func() error {
		if c.conn == nil {
			conn, err := c.dial(time.Until(deadline))
			if err != nil {
				return err
			}
			c.conn = conn
			c.r = bufio.NewReader(conn)
		}
		c.conn.SetDeadline(deadline)
		if done := ctx.Done(); done != nil {
			// Cancellation watcher: force the blocked read to fail now
			// rather than at the deadline.
			stop := make(chan struct{})
			defer close(stop)
			conn := c.conn
			go func() {
				select {
				case <-done:
					conn.SetDeadline(time.Unix(1, 0))
				case <-stop:
				}
			}()
		}
		if err := send(c.conn); err != nil {
			return err
		}
		return recv(c.r, &c.scratch)
	}
	// The client mutex is connection ownership, not a data lock: one
	// exchange owns conn+reader for the whole round trip, so the dial
	// and wire I/O inside try intentionally run under it.
	//remoslint:allow lockheld client lock is connection ownership for the full round trip
	err := try()
	if err != nil && c.conn != nil && ctx.Err() == nil && !isRemote(err) {
		// Stale connection: reconnect once. A decoded remote error is
		// not staleness — the exchange completed and the connection is
		// healthy — and retrying one would hammer a shedding server.
		c.conn.Close()
		c.conn = nil
		//remoslint:allow lockheld client lock is connection ownership for the full round trip
		err = try()
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			// The failure was induced by the caller's own cancellation;
			// the connection state is mid-exchange, so drop it.
			if c.conn != nil {
				c.conn.Close()
				c.conn = nil
			}
			return cerr
		}
		return classifyClientErr(c.Addr, err)
	}
	return nil
}

// Close drops the client connection.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}
