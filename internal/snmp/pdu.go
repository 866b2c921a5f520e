package snmp

import "fmt"

// PDUType identifies the SNMP operation.
type PDUType byte

// PDU types (context-class BER tags).
const (
	GetRequest     PDUType = 0xA0
	GetNextRequest PDUType = 0xA1
	GetResponse    PDUType = 0xA2
	SetRequest     PDUType = 0xA3
	GetBulkRequest PDUType = 0xA5
)

// String names the PDU type.
func (t PDUType) String() string {
	switch t {
	case GetRequest:
		return "GetRequest"
	case GetNextRequest:
		return "GetNextRequest"
	case GetResponse:
		return "Response"
	case SetRequest:
		return "SetRequest"
	case GetBulkRequest:
		return "GetBulkRequest"
	}
	return fmt.Sprintf("PDUType(0x%02x)", byte(t))
}

// SNMP error-status codes used here.
const (
	ErrStatusNoError  = 0
	ErrStatusTooBig   = 1
	ErrStatusGenErr   = 5
	ErrStatusAuthName = 16 // authorizationError
)

// VarBind pairs an OID with a value.
type VarBind struct {
	Name  OID
	Value Value
}

// PDU is one SNMP protocol data unit.
//
// For GetBulkRequest, ErrorStatus holds non-repeaters and ErrorIndex holds
// max-repetitions, per RFC 3416.
type PDU struct {
	Type        PDUType
	RequestID   int32
	ErrorStatus int
	ErrorIndex  int
	VarBinds    []VarBind
}

// Message is a community-string SNMP message (v2c).
type Message struct {
	Community string
	PDU       PDU
}

const snmpVersion2c = 1

// sizedVarBinds is how many varbinds' sizes the sizing pass keeps for the
// append pass: a walk's widest response (7 columns x 16 rows) and every
// Get fit. Past it the append pass sizes a varbind again.
const sizedVarBinds = 128

// frame is the lengths around a varbind list: the message's size, and the
// PDU's and the list's content lengths.
type frame struct{ total, pduLen, vbsLen int }

// set sets the lengths around a varbind list of vbsLen content bytes.
func (f *frame) set(m *Message, vbsLen int) {
	f.vbsLen = vbsLen
	f.pduLen = sizeTLV(sizeIntBody(int64(m.PDU.RequestID))) +
		sizeTLV(sizeIntBody(int64(m.PDU.ErrorStatus))) +
		sizeTLV(sizeIntBody(int64(m.PDU.ErrorIndex))) +
		sizeTLV(vbsLen)
	f.total = sizeTLV(m.bodyLen(f.pduLen))
}

// sizing is what the sizing pass learns and the append pass needs to write
// headers front-to-back: the frame, and each varbind's name body length and
// value TLV size.
type sizing struct {
	frame
	vb [sizedVarBinds]struct{ name, value int32 }
}

// bodyLen is the content length of the outer SEQUENCE.
func (m *Message) bodyLen(pduLen int) int {
	return sizeTLV(sizeIntBody(snmpVersion2c)) + sizeTLV(len(m.Community)) + sizeTLV(pduLen)
}

// sizeVarBind returns one varbind's name body length and value TLV size,
// validating both.
func sizeVarBind(vb *VarBind) (name, value int, err error) {
	if err := checkOID(vb.Name); err != nil {
		return 0, 0, err
	}
	value, err = sizeValue(vb.Value)
	return sizeOIDBody(vb.Name), value, err
}

// marshalSize is the sizing pass: every definite length of m, in one walk
// over the varbinds. It also validates every varbind, so the append pass
// cannot fail.
func (m *Message) marshalSize(s *sizing) error {
	vbsLen := 0
	for i := range m.PDU.VarBinds {
		name, value, err := sizeVarBind(&m.PDU.VarBinds[i])
		if err != nil {
			return err
		}
		if i < sizedVarBinds {
			s.vb[i].name, s.vb[i].value = int32(name), int32(value)
		}
		vbsLen += sizeTLV(sizeTLV(name) + value)
	}
	s.set(m, vbsLen)
	return nil
}

// AppendMarshal BER-encodes the message onto dst and returns the extended
// slice. When dst has sufficient capacity no allocation occurs: lengths are
// computed in a sizing pass, then every tag, length, and body is appended
// directly — no intermediate per-TLV buffers.
func (m *Message) AppendMarshal(dst []byte) ([]byte, error) {
	var s sizing
	if err := m.marshalSize(&s); err != nil {
		return nil, err
	}
	if cap(dst)-len(dst) < s.total {
		grown := make([]byte, len(dst), len(dst)+s.total)
		copy(grown, dst)
		dst = grown
	}
	return m.appendSized(dst, &s, nil), nil
}

// appendHead appends the message up to its first varbind, given the
// lengths around its varbind list.
func (m *Message) appendHead(dst []byte, f *frame) []byte {
	dst = appendHeader(dst, tagSequence, m.bodyLen(f.pduLen))
	dst = appendHeader(dst, tagInteger, sizeIntBody(snmpVersion2c))
	dst = appendIntBody(dst, snmpVersion2c)
	dst = appendHeader(dst, tagOctetString, len(m.Community))
	dst = append(dst, m.Community...)
	dst = appendHeader(dst, byte(m.PDU.Type), f.pduLen)
	dst = appendHeader(dst, tagInteger, sizeIntBody(int64(m.PDU.RequestID)))
	dst = appendIntBody(dst, int64(m.PDU.RequestID))
	dst = appendHeader(dst, tagInteger, sizeIntBody(int64(m.PDU.ErrorStatus)))
	dst = appendIntBody(dst, int64(m.PDU.ErrorStatus))
	dst = appendHeader(dst, tagInteger, sizeIntBody(int64(m.PDU.ErrorIndex)))
	dst = appendIntBody(dst, int64(m.PDU.ErrorIndex))
	return appendHeader(dst, tagSequence, f.vbsLen)
}

// appendSized is the append pass, given the sizing pass's lengths; dst has
// room. When names is not nil, the window of dst each varbind's name body
// was written to is appended to it, in order.
func (m *Message) appendSized(dst []byte, s *sizing, names *[][]byte) []byte {
	dst = m.appendHead(dst, &s.frame)
	for i := range m.PDU.VarBinds {
		vb := &m.PDU.VarBinds[i]
		var nameLen, vsz int
		if i < sizedVarBinds {
			nameLen, vsz = int(s.vb[i].name), int(s.vb[i].value)
		} else {
			nameLen, vsz, _ = sizeVarBind(vb) // validated by marshalSize
		}
		dst = appendHeader(dst, tagSequence, sizeTLV(nameLen)+vsz)
		dst = appendHeader(dst, tagOID, nameLen)
		start := len(dst)
		dst = appendOIDBody(dst, vb.Name)
		if names != nil {
			*names = append(*names, dst[start:len(dst):len(dst)])
		}
		dst = appendValue(dst, vb.Value)
	}
	return dst
}

// Marshal encodes the message in BER, allocating exactly one buffer of the
// final size.
func (m *Message) Marshal() ([]byte, error) {
	var s sizing
	if err := m.marshalSize(&s); err != nil {
		return nil, err
	}
	return m.appendSized(make([]byte, 0, s.total), &s, nil), nil
}

// header reads the message prologue — outer SEQUENCE, version, community —
// and returns a reader positioned at the PDU's tag with the community
// bytes, which alias b.
func header(b []byte) (reader, []byte, error) {
	r := reader{b: b}
	tag, length, err := r.readTL()
	if err != nil {
		return reader{}, nil, err
	}
	if tag != tagSequence {
		return reader{}, nil, fmt.Errorf("snmp: message does not start with SEQUENCE (0x%02x)", tag)
	}
	inner, err := r.readBytes(length)
	if err != nil {
		return reader{}, nil, err
	}
	r = reader{b: inner}
	ver, err := r.readInteger()
	if err != nil {
		return reader{}, nil, err
	}
	if ver != snmpVersion2c {
		return reader{}, nil, fmt.Errorf("snmp: unsupported version %d", ver)
	}
	ctag, clen, err := r.readTL()
	if err != nil {
		return reader{}, nil, err
	}
	community, err := r.readBytes(clen)
	if err != nil {
		return reader{}, nil, err
	}
	if ctag != tagOctetString {
		return reader{}, nil, fmt.Errorf("snmp: community tag 0x%02x, want OctetString", ctag)
	}
	return r, community, nil
}

// defaultCommunity is the conventional v2c community: a message carrying
// it decodes without allocating a string for it.
const defaultCommunity = "public"

// communityString returns b as a string, reusing hint when they are equal.
func communityString(b []byte, hint string) string {
	if string(b) == hint {
		return hint
	}
	return string(b)
}

// Unmarshal decodes a BER message into storage of its own: the Message,
// its varbind slice, one []uint32 every OID aliases and one []byte every
// octet string and IpAddress aliases, all sized exactly by a pre-scan of
// the varbind list. Each value is cap-limited to its own elements (an
// append reallocates rather than overwriting a neighbour), and nothing
// aliases b.
func Unmarshal(b []byte) (*Message, error) {
	d := new(decoder)
	if err := d.decode(b); err != nil {
		return nil, err
	}
	d.msg.Community = communityString(d.community, defaultCommunity)
	return &d.msg, nil
}

// measure pre-scans a varbind list: how many varbinds, OID
// sub-identifiers and octet-string bytes decoding it will produce. The
// counts are exact for a list the decoder accepts, stop where the decode
// loop will report an error, and are bounded by a small multiple of
// len(vbody) for any input.
func measure(vbody []byte) (vbs, subs, octets int) {
	for sc := (reader{b: vbody}); sc.remaining() > 0; vbs++ {
		_, elen, err := sc.readTL()
		if err != nil {
			break
		}
		ebody, err := sc.readBytes(elen)
		if err != nil {
			break
		}
		er := reader{b: ebody}
		for i := 0; i < 2; i++ { // name, value
			tag, length, err := er.readTL()
			if err != nil {
				break
			}
			body, err := er.readBytes(length)
			if err != nil {
				break
			}
			switch tag {
			case tagOID:
				subs += countOIDBody(body)
			case tagOctetString, tagIPAddress:
				octets += len(body)
			}
		}
	}
	return vbs, subs, octets
}

// decode parses b into d. A decoder with no storage yet (one Unmarshal)
// sizes its varbind slice and arenas exactly with a pre-scan; a reused one
// decodes in a single pass into the capacity it has and grows an arena by
// append when a message outgrows it — windows already cut keep pointing at
// the array they were cut from. On error d holds garbage.
func (d *decoder) decode(b []byte) error {
	r, community, err := header(b)
	if err != nil {
		return err
	}
	d.community = community

	ptag, plen, err := r.readTL()
	if err != nil {
		return err
	}
	pbody, err := r.readBytes(plen)
	if err != nil {
		return err
	}
	pr := reader{b: pbody}
	pdu := &d.msg.PDU
	pdu.Type = PDUType(ptag)
	switch pdu.Type {
	case GetRequest, GetNextRequest, GetResponse, SetRequest, GetBulkRequest:
	default:
		return fmt.Errorf("snmp: unsupported PDU type 0x%02x", ptag)
	}
	var hdr [3]int64 // request-id, error-status, error-index
	for i := range hdr {
		if hdr[i], err = pr.readInteger(); err != nil {
			return fmt.Errorf("snmp: malformed PDU header: %w", err)
		}
	}
	pdu.RequestID = int32(hdr[0])
	pdu.ErrorStatus = int(hdr[1])
	pdu.ErrorIndex = int(hdr[2])

	vtag, vlen, err := pr.readTL()
	if err != nil {
		return err
	}
	if vtag != tagSequence {
		return fmt.Errorf("snmp: varbind list tag 0x%02x", vtag)
	}
	vbody, err := pr.readBytes(vlen)
	if err != nil {
		return err
	}
	if pdu.VarBinds == nil {
		nvb, nsub, noct := measure(vbody)
		pdu.VarBinds = make([]VarBind, 0, nvb)
		d.oids = make([]uint32, 0, nsub)
		d.octets = make([]byte, 0, noct)
	}
	pdu.VarBinds, d.oids, d.octets, d.names = pdu.VarBinds[:0], d.oids[:0], d.octets[:0], d.names[:0]

	vr := reader{b: vbody}
	for vr.remaining() > 0 {
		etag, elen, err := vr.readTL()
		if err != nil {
			return err
		}
		if etag != tagSequence {
			return fmt.Errorf("snmp: varbind tag 0x%02x", etag)
		}
		ebody, err := vr.readBytes(elen)
		if err != nil {
			return err
		}
		er := reader{b: ebody}
		name, err := d.name(&er, len(pdu.VarBinds))
		if err != nil {
			return err
		}
		// The value is decoded where it will live, not copied there.
		pdu.VarBinds = append(pdu.VarBinds, VarBind{Name: name})
		if err := d.value(&er, &pdu.VarBinds[len(pdu.VarBinds)-1].Value); err != nil {
			return err
		}
	}
	return nil
}
