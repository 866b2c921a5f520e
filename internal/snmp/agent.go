package snmp

// MIBView is the read interface an agent serves. Implementations are
// provided by package mib, backed by emulated devices.
type MIBView interface {
	// Get returns the value bound to exactly the given OID.
	Get(oid OID) (Value, bool)

	// Next returns the first bound OID strictly after the given one, in
	// lexicographic order, with its value. ok is false at the end of
	// the MIB.
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

// Handle processes one request message and produces the response message,
// or nil if the request must be silently dropped (community mismatch, as
// real agents do).
func (a *Agent) Handle(req *Message) *Message {
	if req.Community != a.Community {
		return nil // drop, like an agent with a wrong community
	}
	resp := &Message{Community: req.Community}
	resp.PDU.Type = GetResponse
	resp.PDU.RequestID = req.PDU.RequestID

	switch req.PDU.Type {
	case GetRequest, GetNextRequest:
		resp.PDU.VarBinds = make([]VarBind, 0, len(req.PDU.VarBinds))
	case GetBulkRequest:
		nonRep, maxRep := req.PDU.ErrorStatus, req.PDU.ErrorIndex
		if n := nonRep + (len(req.PDU.VarBinds)-nonRep)*maxRep; n > 0 && n <= 4096 {
			resp.PDU.VarBinds = make([]VarBind, 0, n)
		}
	}

	switch req.PDU.Type {
	case GetRequest:
		for _, vb := range req.PDU.VarBinds {
			v, ok := a.View.Get(vb.Name)
			if !ok {
				v = NoSuchObject
			}
			resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{Name: vb.Name.Clone(), Value: v})
		}
	case GetNextRequest:
		for _, vb := range req.PDU.VarBinds {
			next, v, ok := a.View.Next(vb.Name)
			if !ok {
				resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{Name: vb.Name.Clone(), Value: EndOfMibView})
				continue
			}
			resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{Name: next, Value: v})
		}
	case GetBulkRequest:
		nonRep := req.PDU.ErrorStatus
		maxRep := req.PDU.ErrorIndex
		limit := a.MaxRepetitions
		if limit <= 0 {
			limit = 64
		}
		if maxRep > limit {
			maxRep = limit
		}
		if nonRep < 0 {
			nonRep = 0
		}
		if nonRep > len(req.PDU.VarBinds) {
			nonRep = len(req.PDU.VarBinds)
		}
		for _, vb := range req.PDU.VarBinds[:nonRep] {
			next, v, ok := a.View.Next(vb.Name)
			if !ok {
				resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{Name: vb.Name.Clone(), Value: EndOfMibView})
				continue
			}
			resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{Name: next, Value: v})
		}
		// Repeaters are answered row by row (RFC 3416 §4.2.3): the i-th
		// successor of every repeater, then the (i+1)-th of every repeater.
		// A repeater that ran off the MIB keeps answering endOfMibView so
		// rows stay aligned; a row of nothing else ends the response.
		reps := req.PDU.VarBinds[nonRep:]
		cur := make([]OID, len(reps))
		ended := make([]bool, len(reps))
		for k, vb := range reps {
			cur[k] = vb.Name
		}
		for i := 0; i < maxRep && len(reps) > 0; i++ {
			live := false
			for k := range reps {
				if !ended[k] {
					if next, v, ok := a.View.Next(cur[k]); ok {
						resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{Name: next, Value: v})
						cur[k] = next
						live = true
						continue
					}
					ended[k] = true
				}
				resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{Name: cur[k].Clone(), Value: EndOfMibView})
			}
			if !live {
				break
			}
		}
	default:
		resp.PDU.ErrorStatus = ErrStatusGenErr
		resp.PDU.VarBinds = req.PDU.VarBinds
	}
	return resp
}

// HandleBytes decodes a request datagram, handles it, and encodes the
// response; nil means drop.
func (a *Agent) HandleBytes(req []byte) []byte {
	msg, err := Unmarshal(req)
	if err != nil {
		return nil
	}
	resp := a.Handle(msg)
	if resp == nil {
		return nil
	}
	out, err := resp.Marshal()
	if err != nil {
		return nil
	}
	return out
}
