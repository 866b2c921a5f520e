package snmp

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"remos/internal/obs"
	"remos/internal/rerr"
)

// Meter accumulates the modeled or measured cost of SNMP exchanges: how
// many requests were sent, how many varbinds they carried, and the total
// round-trip time. The SNMP Collector attaches one meter per query to
// report "query time" the way Figure 3 measures it; with batched polling
// the request count is the number of exchanges (one per device), not the
// number of objects read.
type Meter struct {
	mu       sync.Mutex
	requests int
	varbinds int
	total    time.Duration
}

// Add records one exchange of unknown width.
func (m *Meter) Add(rtt time.Duration) { m.AddExchange(rtt, 0) }

// AddExchange records one exchange carrying nvb varbinds.
func (m *Meter) AddExchange(rtt time.Duration, nvb int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.requests++
	m.varbinds += nvb
	m.total += rtt
	m.mu.Unlock()
}

// Snapshot returns the request count and summed round-trip time so far.
func (m *Meter) Snapshot() (requests int, total time.Duration) {
	if m == nil {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.requests, m.total
}

// Counts returns the exchange count, the total varbinds those exchanges
// carried, and the summed round-trip time.
func (m *Meter) Counts() (requests, varbinds int, total time.Duration) {
	if m == nil {
		return 0, 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.requests, m.varbinds, m.total
}

// Reset zeroes the meter.
func (m *Meter) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.requests = 0
	m.varbinds = 0
	m.total = 0
	m.mu.Unlock()
}

// clientScratch is everything one exchange needs and nothing outlives:
// the request's varbinds and its encoding, the decoded response and its
// arenas, and — for a walk, which holds one scratch for all its exchanges —
// the walk's columns. The request's encoding may live here because the
// transport hands the bytes to the agent and returns before the scratch is
// reused, so nothing aliases them afterwards. A decoded response is
// visible only to the callback of the exchange that decoded it: what
// outlives the callback is copied out.
type clientScratch struct {
	req []VarBind
	buf []byte
	dec decoder

	open   []int  // BulkWalkColumns: indices of the columns still walked
	closed []bool // per open column, for one response
	at     []OID  // per column: the name to walk on from, in own or in dec
	own    []OID  // per column: backing the cursor is copied to between exchanges
}

var clientPool = sync.Pool{New: func() any { return new(clientScratch) }}

// Client issues SNMP requests through a Transport. Every exchange is
// lock-step: one request, then its response. A Client is safe for
// concurrent use, and concurrent callers overlap their round trips —
// to one agent as to many — because the Transport is.
type Client struct {
	Transport Transport
	Community string

	// Retries is the number of re-sends after a timeout (default 1).
	Retries int

	// Meter, when set, accumulates exchange costs.
	Meter *Meter

	// Pre-resolved metric handles, set by Instrument. All are nil-safe,
	// so the hot path records unconditionally.
	mExchanges *obs.Counter
	mRetries   *obs.Counter
	mTimeouts  *obs.Counter
	mRTT       *obs.Histogram

	reqID atomic.Int32
}

// NewClient returns a client over the given transport with the community.
func NewClient(t Transport, community string) *Client {
	return &Client{Transport: t, Community: community, Retries: 1}
}

// Rewind numbers the client's next request 1, as a new client's first:
// a client reused for another sequence of exchanges sends the bytes a new
// one would. Call it when no exchange is in flight.
func (c *Client) Rewind() { c.reqID.Store(0) }

// Instrument resolves the client's metric handles against reg once, so
// the per-exchange hot path touches atomics only, never the registry
// map. A nil registry leaves the client uninstrumented. Call before
// first use.
func (c *Client) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.mExchanges = reg.Counter("remos_snmp_exchanges_total",
		"SNMP request/response exchanges attempted")
	c.mRetries = reg.Counter("remos_snmp_retries_total",
		"SNMP exchanges re-sent after a timeout")
	c.mTimeouts = reg.Counter("remos_snmp_timeouts_total",
		"SNMP exchanges that timed out")
	c.mRTT = reg.Histogram("remos_snmp_rtt_seconds",
		"SNMP exchange round-trip time", nil)
}

// record updates metrics for one exchange attempt.
func (c *Client) record(rtt time.Duration, err error, attempt int) {
	c.mExchanges.Inc()
	if attempt > 0 {
		c.mRetries.Inc()
	}
	if errors.Is(err, ErrTimeout) {
		c.mTimeouts.Inc()
	}
	if err == nil {
		c.mRTT.Observe(rtt.Seconds())
	}
}

// finalErr shapes the error returned after all attempts failed: the
// address is prefixed and timeouts carry the rerr.ErrTimeout class so
// callers up to the public API can errors.Is them.
func finalErr(addr string, lastErr error) error {
	err := fmt.Errorf("snmp: %s: %w", addr, lastErr)
	if errors.Is(lastErr, ErrTimeout) {
		return rerr.Tag(err, rerr.ErrTimeout)
	}
	return err
}

func (c *Client) attempts() int {
	if c.Retries < 0 {
		return 1
	}
	return c.Retries + 1
}

// response decodes one response datagram into the scratch, gives the
// datagram back, and checks that it answers reqID. The decoder copies every
// name and value out of b; the community it cut from b is forgotten.
func (sc *clientScratch) response(b []byte, reqID int32) (*PDU, error) {
	err := sc.dec.decode(b)
	sc.dec.community = nil
	releaseDatagram(b)
	if err != nil {
		return nil, err
	}
	pdu := &sc.dec.msg.PDU
	if pdu.Type != GetResponse || pdu.RequestID != reqID {
		return nil, fmt.Errorf("snmp: mismatched response (type %v, id %d)", pdu.Type, pdu.RequestID)
	}
	return pdu, nil
}

// roundTrip is the one exchange core: it encodes pdu, with sc.req for
// varbinds, once into sc under one RequestID, sends it, and decodes the
// answer into sc — a Get's answer under sc.req's own names where it repeats
// them — re-sending the same bytes after a timeout and after a
// response that does not decode or match. Each response datagram goes back
// to the pool as soon as it is decoded, whatever it said. The PDU it
// returns lives in sc and dies with sc's next exchange.
func (c *Client) roundTrip(ctx context.Context, addr string, sc *clientScratch, pdu PDU) (*PDU, error) {
	msg := Message{Community: c.Community, PDU: pdu}
	msg.PDU.VarBinds = sc.req
	msg.PDU.RequestID = c.reqID.Add(1)
	var s sizing
	if err := msg.marshalSize(&s); err != nil {
		return nil, err
	}
	// A Get is answered under the names it asked for: the encoder keeps
	// each name's bytes, and the decoder takes a response name equal to
	// the one asked in its place as the caller's OID.
	d := &sc.dec
	d.asked, d.askedVBs = d.asked[:0], nil
	var asked *[][]byte
	if pdu.Type == GetRequest {
		asked, d.askedVBs = &d.asked, sc.req
	}
	sc.buf = msg.appendSized(slices.Grow(sc.buf[:0], s.total), &s, asked)
	var lastErr error
	for i := 0; i < c.attempts(); i++ {
		// The blocking RoundTrip itself is not interruptible, but
		// cancellation is honored between attempts, so a canceled walk
		// stops re-sending into a dead agent.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		respB, rtt, err := c.Transport.RoundTrip(addr, sc.buf)
		c.Meter.AddExchange(rtt, len(sc.req))
		c.record(rtt, err, i)
		if err != nil {
			lastErr = err
			continue
		}
		out, err := sc.response(respB, msg.PDU.RequestID)
		if err != nil {
			lastErr = err
			continue
		}
		if out.ErrorStatus != ErrStatusNoError {
			return nil, fmt.Errorf("snmp: agent %s returned error status %d at index %d",
				addr, out.ErrorStatus, out.ErrorIndex)
		}
		return out, nil
	}
	return nil, finalErr(addr, lastErr)
}

// exchange runs one request of the given type for the named objects on a
// pooled scratch, and shows the response's varbinds to use before the
// scratch they live in goes back.
func (c *Client) exchange(ctx context.Context, addr string, typ PDUType, names []OID, use func([]VarBind) error) error {
	sc := clientPool.Get().(*clientScratch)
	defer clientPool.Put(sc)
	sc.req = sc.req[:0]
	for _, o := range names {
		sc.req = append(sc.req, VarBind{Name: o, Value: Null})
	}
	pdu, err := c.roundTrip(ctx, addr, sc, PDU{Type: typ})
	if err != nil {
		return err
	}
	return use(pdu.VarBinds)
}

// GetFunc fetches the exact OIDs and shows fn the response's varbinds,
// honoring the context's cancellation between attempts. The varbinds live
// in the exchange's scratch: they are valid until fn returns, and fn
// copies out what it keeps. A varbind named as asked carries the caller's
// own OID, cap-limited, as its Name.
func (c *Client) GetFunc(ctx context.Context, addr string, oids []OID, fn func([]VarBind)) error {
	return c.exchange(ctx, addr, GetRequest, oids, func(vbs []VarBind) error {
		fn(vbs)
		return nil
	})
}

// Get fetches the exact OIDs: GetFunc for a caller that keeps the
// response, whose varbinds are copies of its own. Missing objects come
// back with KindNoSuchObject values rather than an error.
func (c *Client) Get(ctx context.Context, addr string, oids ...OID) ([]VarBind, error) {
	var out []VarBind
	err := c.GetFunc(ctx, addr, oids, func(vbs []VarBind) {
		out = make([]VarBind, len(vbs))
		for i, vb := range vbs {
			out[i] = VarBind{Name: vb.Name.Clone(), Value: vb.Value.Clone()}
		}
	})
	return out, err
}

// GetOne fetches a single OID and requires the object to exist.
func (c *Client) GetOne(ctx context.Context, addr string, oid OID) (v Value, err error) {
	err = c.exchange(ctx, addr, GetRequest, []OID{oid}, func(vbs []VarBind) error {
		if len(vbs) != 1 {
			return fmt.Errorf("snmp: got %d varbinds for one OID", len(vbs))
		}
		switch vbs[0].Value.Kind {
		case KindNoSuchObject, KindNoSuchInstance, KindEndOfMibView:
			return fmt.Errorf("snmp: %s has no object %s", addr, oid)
		}
		v = vbs[0].Value.Clone()
		return nil
	})
	return v, err
}

// Next performs one GetNext step.
func (c *Client) Next(ctx context.Context, addr string, oid OID) (next OID, v Value, err error) {
	err = c.exchange(ctx, addr, GetNextRequest, []OID{oid}, func(vbs []VarBind) error {
		if len(vbs) != 1 {
			return fmt.Errorf("snmp: GetNext returned %d varbinds", len(vbs))
		}
		if vbs[0].Value.Kind != KindEndOfMibView {
			next, v = vbs[0].Name.Clone(), vbs[0].Value.Clone()
		}
		return nil
	})
	return next, v, err
}

// Walk visits every object under root in order using GetNext, calling fn
// for each. fn returning false stops the walk early; a canceled walk stops
// between steps with the context's error.
func (c *Client) Walk(ctx context.Context, addr string, root OID, fn func(OID, Value) bool) error {
	cur := root
	for {
		next, v, err := c.Next(ctx, addr, cur)
		if err != nil {
			return err
		}
		if next == nil || !next.HasPrefix(root) {
			return nil
		}
		if !fn(next, v) {
			return nil
		}
		cur = next
	}
}

// BulkWalk visits every object under root using GetBulk with the given
// repetition count (<=0 selects 32), which costs far fewer round trips
// than Walk on large tables: the one-column case of BulkWalkColumns.
func (c *Client) BulkWalk(ctx context.Context, addr string, root OID, maxRep int, fn func(OID, Value) bool) error {
	return c.BulkWalkColumns(ctx, addr, nil, []OID{root}, maxRep, func(_ int, o OID, v Value) bool {
		return fn(o, v)
	})
}

// maxBulkVarBinds bounds the repeater varbinds one GetBulk asks for
// (open columns x max-repetitions), keeping responses inside a datagram.
const maxBulkVarBinds = 512

// BulkWalkColumns walks several subtrees of one agent together, in
// lock-step GetBulk exchanges: every request carries one repeating varbind
// per column still inside its root, so a table of k columns costs the
// round trips of its longest column instead of k walks. scalars are
// instance OIDs fetched as the first request's non-repeaters. fn sees them
// first, in order, scalar i as column -1-i, under the name asked for and
// with KindNoSuchObject standing for one the agent does not hold; then the
// objects row by row (row i of every open column, then row i+1). Returning
// false stops the walk. A column is dropped when a response leaves its
// root or ends the MIB.
//
// Every response of the walk is decoded into one scratch: the name and
// value fn is shown are valid until it returns, and fn copies out what it
// keeps. The name each column walks on from is copied into the walk's own
// buffer before the next exchange overwrites the response it came in.
//
// maxRep (<=0 selects 32) sizes the first request only. Afterwards the
// walk asks for what the previous response used: twice the request while
// every row comes back used and columns remain open, never more than an
// agent that capped a request has shown it returns.
func (c *Client) BulkWalkColumns(ctx context.Context, addr string, scalars, columns []OID, maxRep int,
	fn func(col int, name OID, v Value) bool) error {
	if maxRep <= 0 {
		maxRep = 32
	}
	sc := clientPool.Get().(*clientScratch)
	defer clientPool.Put(sc)
	open, at := sc.open[:0], sc.at[:0]
	for k, root := range columns {
		open, at = append(open, k), append(at, root)
	}
	for len(sc.own) < len(columns) {
		sc.own = append(sc.own, nil)
	}
	sc.open, sc.at = open, at
	nonRep := len(scalars)
	agentCap := maxBulkVarBinds
	for len(open) > 0 || nonRep > 0 {
		if lim := maxBulkVarBinds / max(len(open), 1); maxRep > lim {
			maxRep = lim
		}
		sc.req = sc.req[:0]
		for _, inst := range scalars[:nonRep] {
			// GetNext semantics: the instance's parent names it.
			sc.req = append(sc.req, VarBind{Name: inst[:len(inst)-1], Value: Null})
		}
		for _, k := range open {
			sc.req = append(sc.req, VarBind{Name: at[k], Value: Null})
		}
		pdu, err := c.roundTrip(ctx, addr, sc, PDU{
			Type:        GetBulkRequest,
			ErrorStatus: nonRep, // non-repeaters
			ErrorIndex:  maxRep, // max-repetitions
		})
		if err != nil {
			return err
		}
		got := pdu.VarBinds
		for i, inst := range scalars[:nonRep] {
			v := NoSuchObject
			if i < len(got) && got[i].Name.Cmp(inst) == 0 {
				v = got[i].Value
			}
			if !fn(-1-i, inst, v) {
				return nil
			}
		}
		got = got[min(nonRep, len(got)):]
		nonRep = 0

		width := len(open)
		if width == 0 {
			break
		}
		closed := append(sc.closed[:0], make([]bool, width)...)
		sc.closed = closed
		for i := range got {
			vb := &got[i]
			pos := i % width
			if closed[pos] {
				continue
			}
			k := open[pos]
			if vb.Value.Kind == KindEndOfMibView || !vb.Name.HasPrefix(columns[k]) {
				closed[pos] = true
				continue
			}
			if vb.Name.Cmp(at[k]) <= 0 {
				return fmt.Errorf("snmp: agent %s walked backwards at %s", addr, vb.Name)
			}
			if !fn(k, vb.Name, vb.Value) {
				return nil
			}
			at[k] = vb.Name
		}
		rows := len(got) / width
		if rows == 0 {
			break // an empty response cannot make progress
		}
		still := open[:0]
		for pos, k := range open {
			if !closed[pos] {
				still = append(still, k)
				sc.own[k] = append(sc.own[k][:0], at[k]...)
				at[k] = sc.own[k]
			}
		}
		open = still
		if rows < maxRep {
			agentCap = rows // the agent caps repetitions: never ask for more again
		}
		maxRep = min(2*maxRep, agentCap)
	}
	return nil
}
