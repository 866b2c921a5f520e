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

// agentScratch is everything one HandleBytes needs and nothing outlives:
// the decoded request and its arenas, the response, and the GetBulk walk
// state. The response's names alias the request's arena and the table's
// own OIDs; it is marshalled before the scratch goes back to the pool.
type agentScratch struct {
	dec  decoder
	resp Message
	pos  []int // per repeater: the table position of its next row
	last []OID // per repeater: the name its previous row answered with

	// How a GetBulk response is laid out, for fit: the varbinds answering
	// non-repeaters, then rows of width varbinds. width is 0 otherwise.
	nonRep, width int
}

var agentPool = sync.Pool{New: func() any { return new(agentScratch) }}

// Handle processes one request message and produces the response message,
// or nil if the request must be silently dropped (community mismatch, as
// real agents do). The response's names are the request's own and the
// view's, not copies.
func (a *Agent) Handle(req *Message) *Message {
	if req.Community != a.Community {
		return nil // drop, like an agent with a wrong community
	}
	var sc agentScratch
	a.respond(&req.PDU, &sc)
	resp := sc.resp
	resp.Community = req.Community
	return &resp
}

// next answers one GetNext step: the table's successor of name, or name
// itself with endOfMibView.
func next(t *Table, name OID) VarBind {
	if i := t.Seek(name); i < t.Len() {
		o, v := t.At(i)
		return VarBind{Name: o, Value: v}
	}
	return VarBind{Name: name, Value: EndOfMibView}
}

// respond answers req into sc.resp.PDU from one table, reusing the
// capacity sc holds.
func (a *Agent) respond(req *PDU, sc *agentScratch) {
	t := a.View.Table()
	resp := &sc.resp.PDU
	*resp = PDU{Type: GetResponse, RequestID: req.RequestID, VarBinds: resp.VarBinds[:0]}
	sc.nonRep, sc.width = 0, 0

	switch req.Type {
	case GetRequest:
		resp.VarBinds = slices.Grow(resp.VarBinds, len(req.VarBinds))
		for i := range req.VarBinds {
			name := req.VarBinds[i].Name
			v, ok := t.Get(name)
			if !ok {
				v = NoSuchObject
			}
			resp.VarBinds = append(resp.VarBinds, VarBind{Name: name, Value: v})
		}
	case GetNextRequest:
		resp.VarBinds = slices.Grow(resp.VarBinds, len(req.VarBinds))
		for i := range req.VarBinds {
			resp.VarBinds = append(resp.VarBinds, next(t, req.VarBinds[i].Name))
		}
	case GetBulkRequest:
		limit := a.MaxRepetitions
		if limit <= 0 {
			limit = 64
		}
		// Clamp what the peer asked for before anything is sized by it.
		nonRep := min(max(req.ErrorStatus, 0), len(req.VarBinds))
		maxRep := min(max(req.ErrorIndex, 0), limit)
		reps := req.VarBinds[nonRep:]
		sc.nonRep, sc.width = nonRep, len(reps)
		resp.VarBinds = slices.Grow(resp.VarBinds, min(nonRep+len(reps)*maxRep, maxPresize))
		for i := range req.VarBinds[:nonRep] {
			resp.VarBinds = append(resp.VarBinds, next(t, req.VarBinds[i].Name))
		}
		// Repeaters are answered row by row (RFC 3416 §4.2.3): the i-th
		// successor of every repeater, then the (i+1)-th of every repeater
		// — one search per repeater, then a step along the table per row.
		// A repeater that ran off the MIB keeps answering endOfMibView
		// under the last name it had, so rows stay aligned; a row of
		// nothing else ends the response.
		pos, last := sc.pos[:0], sc.last[:0]
		for k := range reps {
			pos, last = append(pos, t.Seek(reps[k].Name)), append(last, reps[k].Name)
		}
		sc.pos, sc.last = pos, last
		for i := 0; i < maxRep && len(reps) > 0; i++ {
			live := false
			for k := range reps {
				if pos[k] < t.Len() {
					o, v := t.At(pos[k])
					resp.VarBinds = append(resp.VarBinds, VarBind{Name: o, Value: v})
					pos[k]++
					last[k] = o
					live = true
					continue
				}
				resp.VarBinds = append(resp.VarBinds, VarBind{Name: last[k], Value: EndOfMibView})
			}
			if !live {
				break
			}
		}
	default:
		resp.ErrorStatus = ErrStatusGenErr
		resp.VarBinds = append(resp.VarBinds, req.VarBinds...)
	}
}

// fit makes the response one datagram can carry, re-running the sizing
// pass over what it keeps: a GetBulk response is cut at the last whole row
// that fits (RFC 3416 §4.2.3); anything else, and a GetBulk with no room
// for one row, answers tooBig with no varbinds.
func (sc *agentScratch) fit(s *sizing) error {
	resp := &sc.resp
	keep := 0
	if sc.width > 0 {
		vbsLen := 0
		for i := range resp.PDU.VarBinds {
			name, value, err := sizeVarBind(&resp.PDU.VarBinds[i])
			if err != nil {
				return err
			}
			vbsLen += sizeTLV(sizeTLV(name) + value)
			if n := i + 1; n >= sc.nonRep && (n-sc.nonRep)%sc.width == 0 {
				if s.frame(resp, vbsLen); s.total > maxDatagram {
					break
				}
				keep = n
			}
		}
	}
	if keep < sc.nonRep+max(sc.width, 1) {
		resp.PDU.ErrorStatus, keep = ErrStatusTooBig, 0
	}
	resp.PDU.VarBinds = resp.PDU.VarBinds[:keep]
	return resp.marshalSize(s)
}

// HandleBytes decodes a request datagram, handles it, and encodes the
// response; nil means drop. The request is decoded into pooled scratch
// and req is not retained; the returned datagram is the caller's and never
// longer than a datagram carries.
func (a *Agent) HandleBytes(req []byte) []byte {
	sc := agentPool.Get().(*agentScratch)
	defer agentPool.Put(sc)
	if err := sc.dec.decode(req); err != nil {
		return nil
	}
	if string(sc.dec.community) != a.Community {
		return nil // drop, like an agent with a wrong community
	}
	sc.resp.Community = a.Community
	a.respond(&sc.dec.msg.PDU, sc)
	var s sizing
	err := sc.resp.marshalSize(&s)
	if err == nil && s.total > maxDatagram {
		err = sc.fit(&s)
	}
	if err != nil {
		return nil
	}
	return sc.resp.appendSized(make([]byte, 0, s.total), &s)
}
