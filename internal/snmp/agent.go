package snmp

import (
	"slices"
	"sync"
)

// MIBView is what an agent serves: the device's layout as it stands, asked
// for once per request. Implementations are provided by package mib,
// backed by emulated devices; a Table is its own view.
type MIBView interface {
	// Table returns the layout to answer one request from. The table is
	// immutable, so every varbind of the request is answered from one
	// state of the device's tables.
	Table() *Table
}

// Agent serves one device's MIB view under a community string.
type Agent struct {
	Community string
	View      MIBView

	// MaxRepetitions caps GetBulk repetition counts to bound response
	// size; 0 means the default of 64.
	MaxRepetitions int
}

// maxPresize bounds how many response varbinds a request's header fields
// can make the agent allocate up front; a longer response grows as it is
// filled.
const maxPresize = 4096

// maxDatagram is the largest message a UDP datagram carries over IPv4:
// 65535 less the IP and UDP headers. A response is made to fit before it
// is written, never built and dropped by the socket.
const maxDatagram = 65507

// row is one varbind of a response, as the bytes it is written with: a
// name body and a value TLV. Both alias what they were read from — the
// table's layout, the request, or the scratch's live values.
type row struct{ name, value []byte }

// size is the row's varbind TLV size.
func (r *row) size() int { return sizeTLV(sizeTLV(len(r.name)) + len(r.value)) }

// The exception values a response row may carry.
var (
	noSuchObjectTLV = []byte{tagNoSuchObject, 0}
	endOfMibViewTLV = []byte{tagEndOfMibView, 0}
)

// agentScratch is everything one HandleBytes needs and nothing outlives:
// the request, decoded with its names kept as bytes, the response rows and
// the live values they carry, and the GetBulk walk state. The rows alias
// the request, the table and vals; they are written out before the scratch
// goes back to the pool.
type agentScratch struct {
	dec  decoder
	rows []row
	vals []byte   // the live values of this response, encoded
	pos  []int    // per repeater: the table position of its next row
	last [][]byte // per repeater: the name its previous row answered with

	// How a GetBulk response is laid out, for fit: the rows answering
	// non-repeaters, then rows of width varbinds. width is 0 otherwise.
	nonRep, width int
}

var agentPool = sync.Pool{New: func() any { return &agentScratch{dec: decoder{raw: true}} }}

// encode encodes v into the scratch's live values and returns its TLV;
// false when v cannot be encoded.
func (sc *agentScratch) encode(v Value) ([]byte, bool) {
	if _, err := sizeValue(v); err != nil {
		return nil, false
	}
	start := len(sc.vals)
	sc.vals = appendValue(sc.vals, v)
	return sc.vals[start:len(sc.vals):len(sc.vals)], true
}

// value returns the TLV of binding i's value: the layout's own bytes, or
// its live value encoded now.
func (sc *agentScratch) value(t *Table, i int) ([]byte, bool) {
	if v := t.fixed(i); len(v) > 0 {
		return v, true
	}
	return sc.encode(t.binds[i].value())
}

// at returns the row of binding i; false when it cannot be encoded.
func (sc *agentScratch) at(t *Table, i int) (row, bool) {
	name := t.name(i)
	if len(name) == 0 {
		return row{}, false
	}
	v, ok := sc.value(t, i)
	return row{name, v}, ok
}

// seek returns the position of the table's successor of an encoded
// request name, which the decoder has validated. The name is decoded past
// the end of the decoder's OID arena, and dropped once sought.
func (sc *agentScratch) seek(t *Table, name []byte) int {
	d := &sc.dec
	start := len(d.oids)
	d.oids, _ = appendOIDSubs(d.oids, name)
	i := t.Seek(d.oids[start:])
	d.oids = d.oids[:start]
	return i
}

// next returns the row answering one GetNext step: the table's successor
// of name, or name itself with endOfMibView.
func (sc *agentScratch) next(t *Table, name []byte) (row, bool) {
	if i := sc.seek(t, name); i < t.Len() {
		return sc.at(t, i)
	}
	return row{name, endOfMibViewTLV}, true
}

// respond answers the decoded request into sc.rows from one table, reusing
// the capacity sc holds, and returns the response's error status; false
// when a row cannot be encoded, which drops the request.
func (a *Agent) respond(sc *agentScratch) (status int, ok bool) {
	t := a.View.Table()
	req := &sc.dec.msg.PDU
	names := sc.dec.names
	sc.rows, sc.vals = sc.rows[:0], sc.vals[:0]
	sc.nonRep, sc.width = 0, 0

	switch req.Type {
	case GetRequest:
		sc.rows = slices.Grow(sc.rows, len(names))
		for _, name := range names {
			r := row{name, noSuchObjectTLV}
			if i, found := t.find(name); found {
				if r.value, ok = sc.value(t, i); !ok {
					return 0, false
				}
			}
			sc.rows = append(sc.rows, r)
		}
	case GetNextRequest:
		sc.rows = slices.Grow(sc.rows, len(names))
		for _, name := range names {
			r, ok := sc.next(t, name)
			if !ok {
				return 0, false
			}
			sc.rows = append(sc.rows, r)
		}
	case GetBulkRequest:
		limit := a.MaxRepetitions
		if limit <= 0 {
			limit = 64
		}
		// Clamp what the peer asked for before anything is sized by it.
		nonRep := min(max(req.ErrorStatus, 0), len(names))
		maxRep := min(max(req.ErrorIndex, 0), limit)
		reps := names[nonRep:]
		sc.nonRep, sc.width = nonRep, len(reps)
		sc.rows = slices.Grow(sc.rows, min(nonRep+len(reps)*maxRep, maxPresize))
		for _, name := range names[:nonRep] {
			r, ok := sc.next(t, name)
			if !ok {
				return 0, false
			}
			sc.rows = append(sc.rows, r)
		}
		// Repeaters are answered row by row (RFC 3416 §4.2.3): the i-th
		// successor of every repeater, then the (i+1)-th of every repeater
		// — one search per repeater, then a step along the table per row.
		// A repeater that ran off the MIB keeps answering endOfMibView
		// under the last name it had, so rows stay aligned; a row of
		// nothing else ends the response.
		pos, last := sc.pos[:0], sc.last[:0]
		for _, name := range reps {
			pos, last = append(pos, sc.seek(t, name)), append(last, name)
		}
		sc.pos, sc.last = pos, last
		for i := 0; i < maxRep && len(reps) > 0; i++ {
			live := false
			for k := range reps {
				if pos[k] < t.Len() {
					r, ok := sc.at(t, pos[k])
					if !ok {
						return 0, false
					}
					sc.rows = append(sc.rows, r)
					pos[k]++
					last[k] = r.name
					live = true
					continue
				}
				sc.rows = append(sc.rows, row{last[k], endOfMibViewTLV})
			}
			if !live {
				break
			}
		}
	default:
		// Nothing is settable: the request's varbinds come back with
		// genErr.
		sc.rows = slices.Grow(sc.rows, len(names))
		for i, name := range names {
			v, ok := sc.encode(req.VarBinds[i].Value)
			if !ok {
				return 0, false
			}
			sc.rows = append(sc.rows, row{name, v})
		}
		return ErrStatusGenErr, true
	}
	return ErrStatusNoError, true
}

// fit makes the response one datagram can carry, re-framing what it keeps:
// a GetBulk response is cut at the last whole row that fits (RFC 3416
// §4.2.3); anything else, and a GetBulk with no room for one row, answers
// tooBig with no varbinds.
func (sc *agentScratch) fit(resp *Message, f *frame) {
	keep, keptLen := 0, 0
	if sc.width > 0 {
		vbsLen := 0
		for i := range sc.rows {
			vbsLen += sc.rows[i].size()
			if n := i + 1; n >= sc.nonRep && (n-sc.nonRep)%sc.width == 0 {
				if f.set(resp, vbsLen); f.total > maxDatagram {
					break
				}
				keep, keptLen = n, vbsLen
			}
		}
	}
	if keep < sc.nonRep+max(sc.width, 1) {
		resp.PDU.ErrorStatus, keep, keptLen = ErrStatusTooBig, 0, 0
	}
	sc.rows = sc.rows[:keep]
	f.set(resp, keptLen)
}

// HandleBytes decodes a request datagram, handles it, and encodes the
// response; nil means drop (a malformed request, another community — as
// real agents do — or a value that cannot be encoded). The request's names
// are kept as bytes: a Get looks each one up by them, and every response
// name and fixed value is copied, not encoded; only live values are. The
// request is decoded into pooled scratch and req is not retained. The
// response is encoded into a buffer from the datagram pool and handed
// over: it is the caller's, never longer than a datagram carries, and a
// caller done with it gives it back through releaseDatagram, as
// Client.roundTrip does once it has decoded it and Server once it has
// sent it. A caller that keeps it leaves it to the garbage collector.
func (a *Agent) HandleBytes(req []byte) []byte {
	//remoslint:allow poolreturn the response is handed over; Client.roundTrip and Server give it back through releaseDatagram
	buf := datagramPool.Get().(*datagram)
	resp := a.answer(buf[:0], req)
	if resp == nil {
		releaseDatagram(buf[:])
	}
	return resp
}

// answer is HandleBytes appending the response to dst, which has room for
// a datagram; whatever its spare capacity held is written over. nil is a
// drop.
func (a *Agent) answer(dst, req []byte) []byte {
	sc := agentPool.Get().(*agentScratch)
	defer agentPool.Put(sc)
	if err := sc.dec.decode(req); err != nil {
		return nil
	}
	if string(sc.dec.community) != a.Community {
		return nil // drop, like an agent with a wrong community
	}
	status, ok := a.respond(sc)
	if !ok {
		return nil
	}
	resp := Message{Community: a.Community, PDU: PDU{Type: GetResponse,
		RequestID: sc.dec.msg.PDU.RequestID, ErrorStatus: status}}
	vbsLen := 0
	for i := range sc.rows {
		vbsLen += sc.rows[i].size()
	}
	var f frame
	if f.set(&resp, vbsLen); f.total > maxDatagram {
		sc.fit(&resp, &f)
	}
	dst = resp.appendHead(dst, &f)
	for _, r := range sc.rows {
		dst = appendHeader(dst, tagSequence, sizeTLV(len(r.name))+len(r.value))
		dst = appendHeader(dst, tagOID, len(r.name))
		dst = append(append(dst, r.name...), r.value...)
	}
	return dst
}
