package proto

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"remos/internal/lines"
	"remos/internal/rerr"
	"remos/internal/watch"
)

// The subscription plane on both wire protocols.
//
// ASCII grammar (extends the QUERY protocol on the same connection):
//
//	C: WATCH <src> <dst> <below> <above> <changefrac>
//	S: WATCHING <id>                                  | ERR [CODE] msg
//	S: UPDATE <id> <seq> <unixnanos> <avail> <prev> <reason>   (async, repeated)
//	S: END <id> <CODE|-> <message...>                 (server-initiated terminal)
//	C: UNWATCH <id>
//	S: UNWATCHED <id>
//
// <below>/<above> are bits per second, <changefrac> a fraction; 0 means
// "predicate unset". UPDATE lines may interleave with query responses:
// the server serializes whole messages onto the connection, and clients
// normally dedicate a connection per watch (as TCPClient.Watch does).
//
// The HTTP transport serves the same registry as Server-Sent Events at
// GET /watch?src=&dst=&below=&above=&change=: "update" events carry the
// Update as JSON, a terminal "end" event carries the typed close reason
// as {"code","msg"}.

// lockedWriter serializes whole-buffer writes from the connection's
// query loop and its watch drain goroutines.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// watch serves one "WATCH <src> <dst> <below> <above> <changefrac>"
// line: it subscribes, acknowledges, and starts the drain goroutine that
// turns pushed updates into UPDATE/END lines. The subscription is
// recorded in the per-connection map so UNWATCH and connection teardown
// find it.
func (c *asciiConn) watch(line []byte) error {
	spec, err := parseWatchArgs(line)
	if err != nil {
		return err
	}
	sub, release, err := c.srv.core.subscribe(c.ten, spec)
	if err != nil {
		return err
	}
	c.subs[sub.ID] = sub
	fmt.Fprintf(&c.w, "WATCHING %d\n", sub.ID)
	c.srv.drains.Add(1)
	//remoslint:allow goctx drain loop ends when the subscription closes (disconnect closes every subscription)
	go func() {
		defer c.srv.drains.Done()
		// The quota slot frees on every teardown path (UNWATCH,
		// server-side END, disconnect) exactly once.
		defer release()
		drainASCII(&c.w, sub)
	}()
	return nil
}

func parseWatchArgs(line []byte) (watch.Spec, error) {
	var tok [6][]byte // WATCH, checked by the dispatcher, and its five arguments
	if lines.Split(line, tok[:]) != len(tok) {
		return watch.Spec{}, fmt.Errorf("proto: bad watch line %q", bytes.TrimSpace(line))
	}
	src, ok1 := attrAddr(tok[1])
	dst, ok2 := attrAddr(tok[2])
	if !ok1 || !ok2 {
		return watch.Spec{}, fmt.Errorf("proto: bad watch endpoints %q", bytes.TrimSpace(line))
	}
	var nums [3]float64
	for i, t := range tok[3:] {
		v, ok := parseFloat(t)
		if !ok || v < 0 {
			return watch.Spec{}, fmt.Errorf("proto: bad watch predicate %q", t)
		}
		nums[i] = v
	}
	return watch.Spec{Src: src, Dst: dst, Below: nums[0], Above: nums[1], ChangeFrac: nums[2]}, nil
}

// drainASCII forwards one subscription's updates onto the connection
// until the subscription closes. Write failures are ignored: the
// connection's read loop notices the broken peer and closes every
// subscription, which ends this loop.
func drainASCII(w io.Writer, sub *watch.Subscription) {
	for u := range sub.Updates() {
		writeWatchLine(w, sub.ID, u)
	}
}

// writeWatchLine renders one update of watch id: an END line for a
// terminal update, an UPDATE line otherwise.
func writeWatchLine(w io.Writer, id int64, u watch.Update) {
	if u.Err != nil {
		code := rerr.Code(u.Err)
		if code == "" {
			code = "-"
		}
		msg := strings.ReplaceAll(u.Err.Error(), "\n", " ")
		fmt.Fprintf(w, "END %d %s %s\n", id, code, msg)
		return
	}
	fmt.Fprintf(w, "UPDATE %d %d %d %g %g %s\n",
		id, u.Seq, u.At.UnixNano(), u.Avail, u.Prev, u.Reason)
}

// unwatch serves "UNWATCH <id>".
func (c *asciiConn) unwatch(line []byte) error {
	var tok [2][]byte // UNWATCH and the id
	if lines.Split(line, tok[:]) != len(tok) {
		return fmt.Errorf("proto: bad unwatch line %q", bytes.TrimSpace(line))
	}
	id, ok := parseInt(tok[1])
	if !ok {
		return fmt.Errorf("proto: bad watch id %q", tok[1])
	}
	if sub := c.subs[id]; sub != nil {
		sub.Close(nil)
		delete(c.subs, id)
	}
	fmt.Fprintf(&c.w, "UNWATCHED %d\n", id)
	return nil
}

// Watch subscribes over the ASCII protocol on a dedicated connection
// (updates are long-lived and must not block queries). The returned
// channel closes after a terminal update whose Err carries the typed
// close reason: the context's error for caller-initiated cancellation,
// the decoded wire code when the server ends the watch, UNAVAILABLE when
// the connection drops. All goroutines exit on cancel, server close, or
// channel abandonment.
func (c *TCPClient) Watch(ctx context.Context, spec watch.Spec) (<-chan watch.Update, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	// Watches ride a dedicated connection (with its own tenant preamble).
	conn, err := c.dial(timeout)
	if err != nil {
		return nil, classifyClientErr(c.Addr, err)
	}
	return c.watchOn(ctx, conn, spec, timeout)
}

// watchOn runs the WATCH exchange and the update stream on a freshly
// dialled connection, which it owns from here on.
func (c *TCPClient) watchOn(ctx context.Context, conn net.Conn, spec watch.Spec, timeout time.Duration) (<-chan watch.Update, error) {
	conn.SetDeadline(time.Now().Add(timeout))
	fmt.Fprintf(conn, "WATCH %s %s %g %g %g\n",
		spec.Src, spec.Dst, spec.Below, spec.Above, spec.ChangeFrac)
	r := bufio.NewReader(conn)
	var scratch []byte
	line, err := lines.Read(r, &scratch)
	if err != nil {
		conn.Close()
		return nil, classifyClientErr(c.Addr, err)
	}
	var f [2][]byte
	n := lines.Split(line, f[:])
	switch {
	case n >= 1 && string(f[0]) == "ERR":
		conn.Close()
		return nil, decodeErrLine(string(bytes.TrimSpace(bytes.TrimPrefix(line, []byte("ERR")))))
	case n == 2 && string(f[0]) == "WATCHING":
	default:
		conn.Close()
		return nil, fmt.Errorf("proto: unexpected watch response %q", bytes.TrimSpace(line))
	}
	id := string(f[1])
	conn.SetDeadline(time.Time{})

	ch := make(chan watch.Update, watchDepth)
	done := make(chan struct{})
	go func() {
		// Cancellation watcher: a polite UNWATCH, then tear the
		// connection down so the reader unblocks.
		select {
		case <-ctx.Done():
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			fmt.Fprintf(conn, "UNWATCH %s\n", id)
		case <-done:
		}
		conn.Close()
	}()
	go func() {
		defer close(ch)
		defer close(done)
		for {
			line, err := lines.Read(r, &scratch)
			if err != nil {
				ferr := classifyClientErr(c.Addr, err)
				if cerr := ctx.Err(); cerr != nil {
					ferr = cerr
				}
				deliverTerminal(ch, watch.Update{Src: spec.Src, Dst: spec.Dst, Err: ferr})
				return
			}
			u, ok := decodeWatchLine(line, spec, ctx.Err())
			if !ok {
				continue
			}
			if u.Err != nil {
				deliverTerminal(ch, u)
				return
			}
			select {
			case ch <- u:
			case <-ctx.Done():
				// Consumer gone; the watcher goroutine is closing the
				// connection, the next read fails, and we exit there.
			}
		}
	}()
	return ch, nil
}

// decodeWatchLine decodes one line of spec's ASCII watch stream: an
// UPDATE, or for END and UNWATCHED the terminal update, Err set. ok is
// false for a line the client skips. An UNWATCHED answers the UNWATCH the
// caller's cancellation sends, so it ends the watch with canceled.
func decodeWatchLine(line []byte, spec watch.Spec, canceled error) (u watch.Update, ok bool) {
	var f [7][]byte
	n := lines.Split(line, f[:])
	u.Src, u.Dst = spec.Src, spec.Dst
	switch string(f[0]) {
	case "UPDATE": // UPDATE <id> <seq> <unixnanos> <avail> <prev> <reason>
		if n != 7 {
			return u, false
		}
		seq, err1 := strconv.ParseInt(string(f[2]), 10, 64)
		ns, err2 := strconv.ParseInt(string(f[3]), 10, 64)
		avail, err3 := strconv.ParseFloat(string(f[4]), 64)
		prev, err4 := strconv.ParseFloat(string(f[5]), 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return u, false
		}
		u.Seq, u.At, u.Avail, u.Prev, u.Reason = seq, time.Unix(0, ns), avail, prev, string(f[6])
		return u, true
	case "END": // END <id> <CODE|-> <message...>
		code := ""
		if n >= 3 && string(f[2]) != "-" {
			code = string(f[2])
		}
		msg := line
		for range 3 {
			_, msg = lines.Cut(msg)
		}
		u.Err = decodeRemoteError(code, "proto: watch ended by server: "+string(bytes.TrimSpace(msg)))
		return u, true
	case "UNWATCHED":
		u.Err = canceled
		if u.Err == nil {
			// Nobody asked: the server ended the watch.
			u.Err = decodeRemoteError("", "proto: watch ended by server: "+string(bytes.TrimSpace(line)))
		}
		return u, true
	}
	return u, false
}

// watchDepth is a client watch's channel depth: a consumer lagging
// further behind loses intermediate updates and never blocks the reader.
const watchDepth = 16

// deliverTerminal pushes the close-reason update, evicting one stale
// buffered update if needed so the reason is not lost on a full channel.
// The caller is the channel's sole sender.
func deliverTerminal(ch chan watch.Update, u watch.Update) {
	select {
	case ch <- u:
		return
	default:
	}
	select {
	case <-ch:
	default:
	}
	select {
	case ch <- u:
	default:
	}
}

// sseEnd is the JSON body of the terminal SSE event.
type sseEnd struct {
	Code string `json:"code,omitempty"`
	Msg  string `json:"msg"`
}

// handleWatch serves GET /watch as Server-Sent Events.
func (s *HTTPServer) handleWatch(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodGet {
		return &httpError{http.StatusMethodNotAllowed, "GET required"}
	}
	q := r.URL.Query()
	spec := watch.Spec{}
	var err error
	if spec.Src, err = netip.ParseAddr(q.Get("src")); err != nil {
		return errors.New("proto: bad src")
	}
	if spec.Dst, err = netip.ParseAddr(q.Get("dst")); err != nil {
		return errors.New("proto: bad dst")
	}
	for _, p := range []struct {
		name string
		dst  *float64
	}{{"below", &spec.Below}, {"above", &spec.Above}, {"change", &spec.ChangeFrac}} {
		if v := q.Get(p.name); v != "" {
			if *p.dst, err = strconv.ParseFloat(v, 64); err != nil || *p.dst < 0 {
				return fmt.Errorf("proto: bad %s", p.name)
			}
		}
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		return &httpError{http.StatusInternalServerError, "streaming unsupported"}
	}
	ten, _, err := s.identify(r)
	if err != nil {
		return err
	}
	sub, release, err := s.core.subscribe(ten, spec)
	if err != nil {
		return err
	}
	defer release()
	defer sub.Close(nil)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case u, ok := <-sub.Updates():
			if !ok {
				return nil
			}
			if u.Err != nil {
				b, _ := json.Marshal(sseEnd{Code: rerr.Code(u.Err), Msg: u.Err.Error()})
				fmt.Fprintf(w, "event: end\ndata: %s\n\n", b)
				fl.Flush()
				return nil
			}
			b, err := json.Marshal(u)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: update\ndata: %s\n\n", b)
			fl.Flush()
		case <-r.Context().Done():
			return nil
		}
	}
}

// Watch subscribes over the HTTP transport (Server-Sent Events). Same
// channel semantics as the ASCII client's Watch.
func (c *HTTPClient) Watch(ctx context.Context, spec watch.Spec) (<-chan watch.Update, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vals := url.Values{}
	vals.Set("src", spec.Src.String())
	vals.Set("dst", spec.Dst.String())
	if spec.Below > 0 {
		vals.Set("below", strconv.FormatFloat(spec.Below, 'g', -1, 64))
	}
	if spec.Above > 0 {
		vals.Set("above", strconv.FormatFloat(spec.Above, 'g', -1, 64))
	}
	if spec.ChangeFrac > 0 {
		vals.Set("change", strconv.FormatFloat(spec.ChangeFrac, 'g', -1, 64))
	}
	// The stream is long-lived, so a client with an overall timeout
	// would sever it; use the caller's client only if it carries none.
	hc := c.Client
	if hc == nil || hc.Timeout > 0 {
		hc = defaultHTTPClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/watch?"+vals.Encode(), nil)
	if err != nil {
		return nil, err
	}
	setTenantHeaders(req, c.Tenant, c.TenantKey, c.Priority)
	resp, err := c.exchange(ctx, hc, req)
	if err != nil {
		return nil, err
	}
	ch := make(chan watch.Update, watchDepth)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var ferr error
		for {
			event, data, err := nextSSE(sc)
			if err != nil {
				ferr = err
				break
			}
			u, ok := decodeSSE(event, data)
			if !ok {
				continue
			}
			if u.Err != nil {
				u.Src, u.Dst = spec.Src, spec.Dst
				deliverTerminal(ch, u)
				return
			}
			select {
			case ch <- u:
			case <-ctx.Done():
				deliverTerminal(ch, watch.Update{Src: spec.Src, Dst: spec.Dst, Err: ctx.Err()})
				return
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			deliverTerminal(ch, watch.Update{Src: spec.Src, Dst: spec.Dst, Err: cerr})
			return
		}
		if ferr == io.EOF {
			ferr = io.ErrUnexpectedEOF
		}
		deliverTerminal(ch, watch.Update{Src: spec.Src, Dst: spec.Dst,
			Err: classifyClientErr(c.BaseURL, ferr)})
	}()
	return ch, nil
}

// nextSSE reads the next complete event of a Server-Sent Events stream:
// its "event: " and "data: " lines up to a blank line, the last of each
// winning, other lines ignored. It returns io.EOF once the stream ends
// (an event cut short by the end is dropped), or the stream's read
// error.
func nextSSE(sc *bufio.Scanner) (event, data string, err error) {
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			return event, data, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", "", err
	}
	return "", "", io.EOF
}

// decodeSSE turns one event of a watch stream into the update it
// carries: an "update" event's JSON, or for an "end" event the terminal
// update whose Err is the server's typed close reason. ok is false for
// an event the client skips: another name, or an update that does not
// decode.
func decodeSSE(event, data string) (u watch.Update, ok bool) {
	switch event {
	case "update":
		return u, json.Unmarshal([]byte(data), &u) == nil
	case "end":
		var e sseEnd
		json.Unmarshal([]byte(data), &e)
		u.Err = decodeRemoteError(e.Code, "proto: watch ended by server: "+e.Msg)
		return u, true
	}
	return u, false
}
