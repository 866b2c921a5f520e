package snmp

import (
	"slices"
	"sync"
)

// MIBView is the read interface an agent serves. Implementations are
// provided by package mib, backed by emulated devices.
type MIBView interface {
	// Get returns the value bound to exactly the given OID. The
	// argument must not be retained.
	Get(oid OID) (Value, bool)

	// Next returns the first bound OID strictly after the given one, in
	// lexicographic order, with its value. ok is false at the end of
	// the MIB. The OID returned is immutable: the view never writes to
	// it again, and the agent hands it out (and walks on from it)
	// without copying. The argument may live in pooled scratch and must
	// not be retained.
	Next(oid OID) (next OID, v Value, ok bool)
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

// agentScratch is everything one HandleBytes needs and nothing outlives:
// the decoded request and its arenas, the response, and the GetBulk walk
// state. The response's names alias the request's arena and the view's
// own OIDs; it is marshalled before the scratch goes back to the pool.
type agentScratch struct {
	dec   decoder
	resp  Message
	cur   []OID
	ended []bool
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

// next answers one GetNext step: the view's successor of name, or name
// itself with endOfMibView.
func (a *Agent) next(name OID) VarBind {
	if o, v, ok := a.View.Next(name); ok {
		return VarBind{Name: o, Value: v}
	}
	return VarBind{Name: name, Value: EndOfMibView}
}

// respond answers req into sc.resp.PDU, reusing the capacity sc holds.
func (a *Agent) respond(req *PDU, sc *agentScratch) {
	resp := &sc.resp.PDU
	*resp = PDU{Type: GetResponse, RequestID: req.RequestID, VarBinds: resp.VarBinds[:0]}

	switch req.Type {
	case GetRequest:
		resp.VarBinds = slices.Grow(resp.VarBinds, len(req.VarBinds))
		for _, vb := range req.VarBinds {
			v, ok := a.View.Get(vb.Name)
			if !ok {
				v = NoSuchObject
			}
			resp.VarBinds = append(resp.VarBinds, VarBind{Name: vb.Name, Value: v})
		}
	case GetNextRequest:
		resp.VarBinds = slices.Grow(resp.VarBinds, len(req.VarBinds))
		for _, vb := range req.VarBinds {
			resp.VarBinds = append(resp.VarBinds, a.next(vb.Name))
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
		resp.VarBinds = slices.Grow(resp.VarBinds, min(nonRep+len(reps)*maxRep, maxPresize))
		for _, vb := range req.VarBinds[:nonRep] {
			resp.VarBinds = append(resp.VarBinds, a.next(vb.Name))
		}
		// Repeaters are answered row by row (RFC 3416 §4.2.3): the i-th
		// successor of every repeater, then the (i+1)-th of every repeater.
		// A repeater that ran off the MIB keeps answering endOfMibView so
		// rows stay aligned; a row of nothing else ends the response.
		cur, ended := sc.cur[:0], sc.ended[:0]
		for _, vb := range reps {
			cur, ended = append(cur, vb.Name), append(ended, false)
		}
		sc.cur, sc.ended = cur, ended
		for i := 0; i < maxRep && len(reps) > 0; i++ {
			live := false
			for k := range reps {
				if !ended[k] {
					if o, v, ok := a.View.Next(cur[k]); ok {
						resp.VarBinds = append(resp.VarBinds, VarBind{Name: o, Value: v})
						cur[k] = o
						live = true
						continue
					}
					ended[k] = true
				}
				resp.VarBinds = append(resp.VarBinds, VarBind{Name: cur[k], Value: EndOfMibView})
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

// HandleBytes decodes a request datagram, handles it, and encodes the
// response; nil means drop. The request is decoded into pooled scratch
// and req is not retained; the returned datagram is the caller's.
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
	out, err := sc.resp.Marshal()
	if err != nil {
		return nil
	}
	return out
}
