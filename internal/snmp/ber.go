package snmp

import (
	"errors"
	"fmt"
)

// BER tag bytes for the types the Remos collectors use.
const (
	tagInteger      = 0x02
	tagOctetString  = 0x04
	tagNull         = 0x05
	tagOID          = 0x06
	tagSequence     = 0x30
	tagIPAddress    = 0x40
	tagCounter32    = 0x41
	tagGauge32      = 0x42
	tagTimeTicks    = 0x43
	tagCounter64    = 0x46
	tagNoSuchObject = 0x80 // varbind exception (v2c)
	tagNoSuchInst   = 0x81
	tagEndOfMibView = 0x82
)

// Kind enumerates SNMP value types.
type Kind int

// Value kinds.
const (
	KindNull Kind = iota
	KindInteger
	KindOctetString
	KindOID
	KindIPAddress
	KindCounter32
	KindGauge32
	KindTimeTicks
	KindCounter64
	KindNoSuchObject
	KindNoSuchInstance
	KindEndOfMibView
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "Null"
	case KindInteger:
		return "Integer"
	case KindOctetString:
		return "OctetString"
	case KindOID:
		return "ObjectIdentifier"
	case KindIPAddress:
		return "IpAddress"
	case KindCounter32:
		return "Counter32"
	case KindGauge32:
		return "Gauge32"
	case KindTimeTicks:
		return "TimeTicks"
	case KindCounter64:
		return "Counter64"
	case KindNoSuchObject:
		return "noSuchObject"
	case KindNoSuchInstance:
		return "noSuchInstance"
	case KindEndOfMibView:
		return "endOfMibView"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Value is one SNMP variable value. Exactly one of Int, Bytes, Oid carries
// data depending on Kind; exception kinds carry none.
type Value struct {
	Kind  Kind
	Int   int64  // Integer; unsigned value for Counter/Gauge/TimeTicks/Counter64
	Bytes []byte // OctetString and IPAddress (4 bytes)
	Oid   OID    // ObjectIdentifier
}

// Convenience constructors.

// Int64 returns an Integer value.
func Int64(v int64) Value { return Value{Kind: KindInteger, Int: v} }

// Str returns an OctetString value.
func Str(s string) Value { return Value{Kind: KindOctetString, Bytes: []byte(s)} }

// Octets returns an OctetString value from raw bytes.
func Octets(b []byte) Value { return Value{Kind: KindOctetString, Bytes: b} }

// Counter returns a Counter32 value (wrapped to 32 bits).
func Counter(v uint64) Value { return Value{Kind: KindCounter32, Int: int64(uint32(v))} }

// Gauge returns a Gauge32 value.
func Gauge(v uint32) Value { return Value{Kind: KindGauge32, Int: int64(v)} }

// Ticks returns a TimeTicks value (hundredths of seconds).
func Ticks(v uint32) Value { return Value{Kind: KindTimeTicks, Int: int64(v)} }

// IPv4 returns an IpAddress value.
func IPv4(b [4]byte) Value { return Value{Kind: KindIPAddress, Bytes: b[:]} }

// OIDValue returns an ObjectIdentifier value.
func OIDValue(o OID) Value { return Value{Kind: KindOID, Oid: o} }

// Counter64Val returns a Counter64 value (full 64-bit range; the high-
// capacity interface counters are served as these).
func Counter64Val(v uint64) Value { return Value{Kind: KindCounter64, Int: int64(v)} }

// Null is the null value.
var Null = Value{Kind: KindNull}

// NoSuchObject is the v2c exception returned for missing objects.
var NoSuchObject = Value{Kind: KindNoSuchObject}

// EndOfMibView is the v2c exception ending GetNext/GetBulk walks.
var EndOfMibView = Value{Kind: KindEndOfMibView}

// Clone returns a copy of the value sharing no storage with v: what a
// caller keeps of a decoded message that dies with its exchange.
func (v Value) Clone() Value {
	if v.Bytes != nil {
		v.Bytes = append([]byte{}, v.Bytes...)
	}
	if v.Oid != nil {
		v.Oid = v.Oid.Clone()
	}
	return v
}

// String renders the value for debugging and the ASCII protocol.
func (v Value) String() string {
	switch v.Kind {
	case KindInteger, KindCounter32, KindGauge32, KindTimeTicks, KindCounter64:
		return fmt.Sprintf("%s(%d)", v.Kind, v.Int)
	case KindOctetString:
		return fmt.Sprintf("OctetString(%q)", v.Bytes)
	case KindOID:
		return fmt.Sprintf("OID(%s)", v.Oid)
	case KindIPAddress:
		if len(v.Bytes) == 4 {
			return fmt.Sprintf("IpAddress(%d.%d.%d.%d)", v.Bytes[0], v.Bytes[1], v.Bytes[2], v.Bytes[3])
		}
		return "IpAddress(?)"
	default:
		return v.Kind.String()
	}
}

// ErrTruncated reports a BER message shorter than its length fields claim.
var ErrTruncated = errors.New("snmp: truncated BER data")

// The encoder works in two passes over the same Message: a sizing pass
// that computes every definite length, then an append pass that writes
// tag, length, and content directly into the destination buffer. No
// intermediate per-TLV []byte is ever built, so encoding into a recycled
// buffer allocates nothing.

// sizeLength returns the encoded size of a definite length field.
func sizeLength(n int) int {
	if n < 0x80 {
		return 1
	}
	s := 1
	for x := n; x > 0; x >>= 8 {
		s++
	}
	return s
}

// sizeTLV returns the full TLV size for a content of the given length.
func sizeTLV(contentLen int) int { return 1 + sizeLength(contentLen) + contentLen }

// appendHeader appends a tag and definite length.
func appendHeader(dst []byte, tag byte, n int) []byte {
	dst = append(dst, tag)
	if n < 0x80 {
		return append(dst, byte(n))
	}
	var tmp [8]byte
	i := len(tmp)
	for x := n; x > 0; x >>= 8 {
		i--
		tmp[i] = byte(x)
	}
	dst = append(dst, 0x80|byte(len(tmp)-i))
	return append(dst, tmp[i:]...)
}

// sizeIntBody returns the minimal two's-complement body size for v.
func sizeIntBody(v int64) int {
	n := 1
	for x := v; (x > 0x7f || x < -0x80) && n < 9; n++ {
		x >>= 8
	}
	return n
}

// appendIntBody encodes a signed integer body (two's complement, minimal).
func appendIntBody(dst []byte, v int64) []byte {
	n := sizeIntBody(v)
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, byte(v>>(8*i)))
	}
	return dst
}

// sizeUintBody returns the body size appendUintBody will produce.
func sizeUintBody(v uint64) int {
	n := 1
	for x := v; x > 0xff && n < 9; n++ {
		x >>= 8
	}
	if v>>(8*uint(n-1))&0x80 != 0 {
		n++
	}
	return n
}

// appendUintBody encodes an unsigned integer body with a leading zero when
// the high bit would otherwise be set (SNMP counters are unsigned).
func appendUintBody(dst []byte, v uint64) []byte {
	n := 1
	for x := v; x > 0xff && n < 9; n++ {
		x >>= 8
	}
	if v>>(8*uint(n-1))&0x80 != 0 {
		dst = append(dst, 0)
	}
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, byte(v>>(8*uint(i))))
	}
	return dst
}

// checkOID validates that the encoder can represent the OID head.
func checkOID(o OID) error {
	if len(o) < 2 {
		return fmt.Errorf("snmp: OID %v too short to encode", o)
	}
	switch {
	case o[0] < 2:
		if o[1] >= 40 {
			return fmt.Errorf("snmp: invalid OID head %d.%d", o[0], o[1])
		}
	case o[0] == 2:
		if o[1] > 0xff-80 {
			return fmt.Errorf("snmp: invalid OID head %d.%d", o[0], o[1])
		}
	default:
		return fmt.Errorf("snmp: invalid OID head %d.%d", o[0], o[1])
	}
	return nil
}

// sizeOIDBody returns the body size for an OID that passed checkOID.
// Sub-identifiers below 2^7 and 2^14 — every MIB arc, ifIndex, MAC and
// IPv4 octet — are sized and written without the general base-128 loop.
func sizeOIDBody(o OID) int {
	n := 1
	for _, v := range o[2:] {
		switch {
		case v < 1<<7:
			n++
		case v < 1<<14:
			n += 2
		default:
			n += sizeBase128(v)
		}
	}
	return n
}

// appendOIDBody encodes an OID body; the OID must have passed checkOID.
func appendOIDBody(dst []byte, o OID) []byte {
	dst = append(dst, byte(o[0]*40+o[1]))
	for _, v := range o[2:] {
		switch {
		case v < 1<<7:
			dst = append(dst, byte(v))
		case v < 1<<14:
			dst = append(dst, byte(v>>7)|0x80, byte(v&0x7f))
		default:
			dst = appendBase128(dst, v)
		}
	}
	return dst
}

func sizeBase128(v uint32) int {
	n := 1
	for v >= 0x80 {
		n++
		v >>= 7
	}
	return n
}

func appendBase128(dst []byte, v uint32) []byte {
	var tmp [5]byte
	i := len(tmp) - 1
	tmp[i] = byte(v & 0x7f)
	v >>= 7
	for v > 0 {
		i--
		tmp[i] = byte(v&0x7f) | 0x80
		v >>= 7
	}
	return append(dst, tmp[i:]...)
}

// sizeValue returns the full TLV size for v, validating it. Every value
// must pass through here before appendValue may encode it.
func sizeValue(v Value) (int, error) {
	switch v.Kind {
	case KindNull, KindNoSuchObject, KindNoSuchInstance, KindEndOfMibView:
		return 2, nil
	case KindInteger:
		return sizeTLV(sizeIntBody(v.Int)), nil
	case KindOctetString:
		return sizeTLV(len(v.Bytes)), nil
	case KindOID:
		if err := checkOID(v.Oid); err != nil {
			return 0, err
		}
		return sizeTLV(sizeOIDBody(v.Oid)), nil
	case KindIPAddress:
		if len(v.Bytes) != 4 {
			return 0, fmt.Errorf("snmp: IpAddress must be 4 bytes, got %d", len(v.Bytes))
		}
		return sizeTLV(4), nil
	case KindCounter32, KindGauge32, KindTimeTicks:
		return sizeTLV(sizeUintBody(uint64(uint32(v.Int)))), nil
	case KindCounter64:
		return sizeTLV(sizeUintBody(uint64(v.Int))), nil
	}
	return 0, fmt.Errorf("snmp: cannot marshal kind %v", v.Kind)
}

// appendValue encodes one Value as a TLV. v must have passed sizeValue.
func appendValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, tagNull, 0)
	case KindInteger:
		dst = appendHeader(dst, tagInteger, sizeIntBody(v.Int))
		return appendIntBody(dst, v.Int)
	case KindOctetString:
		dst = appendHeader(dst, tagOctetString, len(v.Bytes))
		return append(dst, v.Bytes...)
	case KindOID:
		dst = appendHeader(dst, tagOID, sizeOIDBody(v.Oid))
		return appendOIDBody(dst, v.Oid)
	case KindIPAddress:
		dst = appendHeader(dst, tagIPAddress, 4)
		return append(dst, v.Bytes...)
	case KindCounter32:
		u := uint64(uint32(v.Int))
		dst = appendHeader(dst, tagCounter32, sizeUintBody(u))
		return appendUintBody(dst, u)
	case KindGauge32:
		u := uint64(uint32(v.Int))
		dst = appendHeader(dst, tagGauge32, sizeUintBody(u))
		return appendUintBody(dst, u)
	case KindTimeTicks:
		u := uint64(uint32(v.Int))
		dst = appendHeader(dst, tagTimeTicks, sizeUintBody(u))
		return appendUintBody(dst, u)
	case KindCounter64:
		u := uint64(v.Int)
		dst = appendHeader(dst, tagCounter64, sizeUintBody(u))
		return appendUintBody(dst, u)
	case KindNoSuchObject:
		return append(dst, tagNoSuchObject, 0)
	case KindNoSuchInstance:
		return append(dst, tagNoSuchInst, 0)
	case KindEndOfMibView:
		return append(dst, tagEndOfMibView, 0)
	}
	return dst
}

// reader is a cursor over BER bytes.
type reader struct {
	b []byte
	i int
}

func (r *reader) remaining() int { return len(r.b) - r.i }

func (r *reader) byteAt() (byte, error) {
	if r.i >= len(r.b) {
		return 0, ErrTruncated
	}
	c := r.b[r.i]
	r.i++
	return c, nil
}

func (r *reader) readTL() (tag byte, length int, err error) {
	tag, err = r.byteAt()
	if err != nil {
		return 0, 0, err
	}
	first, err := r.byteAt()
	if err != nil {
		return 0, 0, err
	}
	if first < 0x80 {
		return tag, int(first), nil
	}
	n := int(first & 0x7f)
	if n == 0 || n > 4 {
		return 0, 0, fmt.Errorf("snmp: unsupported BER length of length %d", n)
	}
	length = 0
	for j := 0; j < n; j++ {
		c, err := r.byteAt()
		if err != nil {
			return 0, 0, err
		}
		length = length<<8 | int(c)
	}
	return tag, length, nil
}

func (r *reader) readBytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, ErrTruncated
	}
	out := r.b[r.i : r.i+n]
	r.i += n
	return out, nil
}

func parseIntBody(b []byte) (int64, error) {
	if len(b) == 0 || len(b) > 8 {
		return 0, fmt.Errorf("snmp: bad integer length %d", len(b))
	}
	v := int64(int8(b[0])) // sign extend
	for _, c := range b[1:] {
		v = v<<8 | int64(c)
	}
	return v, nil
}

func parseUintBody(b []byte) (uint64, error) {
	if len(b) == 0 || len(b) > 9 || (len(b) == 9 && b[0] != 0) {
		return 0, fmt.Errorf("snmp: bad unsigned length %d", len(b))
	}
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v, nil
}

// countOIDBody returns how many sub-identifiers appendOIDSubs will produce
// for a body it accepts: two for the head byte, one per byte without the
// continuation bit after it.
func countOIDBody(b []byte) int {
	if len(b) == 0 {
		return 0
	}
	n := 2
	for _, c := range b[1:] {
		if c&0x80 == 0 {
			n++
		}
	}
	return n
}

// An OID body is accepted in one encoding only (X.690 §8.19.2): no
// sub-identifier starts with a 0x80 byte, and none passes 32 bits. So equal
// bodies name equal OIDs and unequal bodies unequal ones, and a name can be
// matched by its bytes.
var (
	errOIDEmpty   = errors.New("snmp: empty OID body")
	errOIDPadded  = errors.New("snmp: OID sub-identifier starts with 0x80")
	errOIDTooWide = errors.New("snmp: OID sub-identifier exceeds 32 bits")
)

// maxSubPrefix is the largest sub-identifier prefix that may take one more
// base-128 digit without passing 32 bits.
const maxSubPrefix = 1<<32>>7 - 1

// appendOIDSubs decodes an OID body onto dst. checkOIDBody accepts exactly
// the bodies it does, with the same errors.
func appendOIDSubs(dst []uint32, b []byte) ([]uint32, error) {
	if len(b) == 0 {
		return dst, errOIDEmpty
	}
	if b[0] >= 80 {
		dst = append(dst, 2, uint32(b[0])-80)
	} else {
		dst = append(dst, uint32(b[0])/40, uint32(b[0])%40)
	}
	var cur uint32
	inRun := false
	for _, c := range b[1:] {
		if !inRun && c == 0x80 {
			return dst, errOIDPadded
		}
		if cur > maxSubPrefix {
			return dst, errOIDTooWide
		}
		cur = cur<<7 | uint32(c&0x7f)
		if inRun = c&0x80 != 0; !inRun {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if inRun {
		return dst, ErrTruncated
	}
	return dst, nil
}

// checkOIDBody validates an OID body without decoding it: what the agent
// does with the names of a Get, which it matches by their bytes.
func checkOIDBody(b []byte) error {
	if len(b) == 0 {
		return errOIDEmpty
	}
	var cur uint32
	inRun := false
	for _, c := range b[1:] {
		if !inRun && c == 0x80 {
			return errOIDPadded
		}
		if cur > maxSubPrefix {
			return errOIDTooWide
		}
		cur = cur<<7 | uint32(c&0x7f)
		if inRun = c&0x80 != 0; !inRun {
			cur = 0
		}
	}
	if inRun {
		return ErrTruncated
	}
	return nil
}

// readInteger reads one INTEGER TLV.
func (r *reader) readInteger() (int64, error) {
	tag, length, err := r.readTL()
	if err != nil {
		return 0, err
	}
	body, err := r.readBytes(length)
	if err != nil {
		return 0, err
	}
	if tag != tagInteger {
		return 0, fmt.Errorf("snmp: tag 0x%02x where an INTEGER belongs", tag)
	}
	return parseIntBody(body)
}

// decoder is one decoded message and the storage its values live in: the
// varbind slice, one []uint32 holding every OID (names and OID values) and
// one []byte holding every octet string and IpAddress. Each value is a
// cap-limited sub-slice of its arena, so appending to one reallocates it
// instead of reaching its neighbour. A fresh decoder backs one Unmarshal;
// the agent and the client reuse pooled ones, whose previous message dies
// with the next decode.
type decoder struct {
	msg       Message
	community []byte // aliases the input, valid only while it is
	oids      []uint32
	octets    []byte

	// raw keeps names as bytes: each varbind's name body is validated and
	// kept in names, aliasing the input, and its Name is left nil. The
	// agent decodes requests so.
	raw   bool
	names [][]byte

	// asked are the name bodies of the Get a response answers, by
	// position, and askedVBs the varbinds they encode: a response name
	// whose bytes equal its position's body is that varbind's Name, not
	// decoded again. The client sets them for each Get it sends.
	asked    [][]byte
	askedVBs []VarBind
}

// oid decodes an OID body into the arena.
func (d *decoder) oid(body []byte) (OID, error) {
	start := len(d.oids)
	var err error
	if d.oids, err = appendOIDSubs(d.oids, body); err != nil {
		return nil, err
	}
	return OID(d.oids[start:len(d.oids):len(d.oids)]), nil
}

// name reads the name of the message's i-th varbind.
func (d *decoder) name(r *reader, i int) (OID, error) {
	tag, length, err := r.readTL()
	if err != nil {
		return nil, err
	}
	body, err := r.readBytes(length)
	if err != nil {
		return nil, err
	}
	if tag != tagOID {
		return nil, fmt.Errorf("snmp: varbind name tag 0x%02x", tag)
	}
	switch {
	case d.raw:
		d.names = append(d.names, body)
		return nil, checkOIDBody(body)
	case i < len(d.asked) && string(body) == string(d.asked[i]):
		o := d.askedVBs[i].Name
		return o[:len(o):len(o)], nil
	}
	return d.oid(body)
}

// bytes copies an octet-string body into the arena. The result is never
// nil, so an empty octet string decodes to what Octets([]byte{}) builds.
func (d *decoder) bytes(body []byte) []byte {
	start := len(d.octets)
	d.octets = append(d.octets, body...)
	return d.octets[start:len(d.octets):len(d.octets)]
}

// value decodes one TLV into *v, overwriting whatever it held.
func (d *decoder) value(r *reader, v *Value) error {
	tag, length, err := r.readTL()
	if err != nil {
		return err
	}
	body, err := r.readBytes(length)
	if err != nil {
		return err
	}
	switch tag {
	case tagNull:
		*v = Null
	case tagInteger:
		i, err := parseIntBody(body)
		if err != nil {
			return err
		}
		*v = Int64(i)
	case tagOctetString:
		*v = Octets(d.bytes(body))
	case tagOID:
		o, err := d.oid(body)
		if err != nil {
			return err
		}
		*v = OIDValue(o)
	case tagIPAddress:
		if len(body) != 4 {
			return fmt.Errorf("snmp: IpAddress body %d bytes", len(body))
		}
		*v = Value{Kind: KindIPAddress, Bytes: d.bytes(body)}
	case tagCounter32, tagGauge32, tagTimeTicks, tagCounter64:
		u, err := parseUintBody(body)
		if err != nil {
			return err
		}
		var k Kind
		switch tag {
		case tagCounter32:
			k = KindCounter32
		case tagGauge32:
			k = KindGauge32
		case tagTimeTicks:
			k = KindTimeTicks
		case tagCounter64:
			k = KindCounter64
		}
		if k != KindCounter64 {
			u = uint64(uint32(u)) // 32-bit application types truncate
		}
		*v = Value{Kind: k, Int: int64(u)}
	case tagNoSuchObject:
		*v = NoSuchObject
	case tagNoSuchInst:
		*v = Value{Kind: KindNoSuchInstance}
	case tagEndOfMibView:
		*v = EndOfMibView
	default:
		return fmt.Errorf("snmp: unsupported BER tag 0x%02x", tag)
	}
	return nil
}
