package collector

import "remos/internal/snmp"

// MAC is a 48-bit station address as collectors see it in Bridge-MIB
// forwarding tables.
type MAC [6]byte

// String formats the address as colon-separated hex.
func (m MAC) String() string {
	var b [17]byte
	return string(m.AppendHex(b[:0]))
}

// AppendHex appends the colon-separated hex form to dst. Node IDs are
// built from it on every segment of every level-2 path, so it writes the
// digits directly instead of going through fmt.
func (m MAC) AppendHex(dst []byte) []byte {
	const digits = "0123456789abcdef"
	for i, v := range m {
		if i > 0 {
			dst = append(dst, ':')
		}
		dst = append(dst, digits[v>>4], digits[v&0xf])
	}
	return dst
}

// OIDSuffix returns the six sub-identifiers indexing this MAC in
// dot1dTpFdb tables.
func (m MAC) OIDSuffix() []uint32 {
	return []uint32{uint32(m[0]), uint32(m[1]), uint32(m[2]), uint32(m[3]), uint32(m[4]), uint32(m[5])}
}

// MACFromOID recovers a MAC from the last six sub-identifiers of a
// dot1dTpFdb row OID.
func MACFromOID(o snmp.OID) (MAC, bool) {
	if len(o) < 6 {
		return MAC{}, false
	}
	var m MAC
	for i := 0; i < 6; i++ {
		v := o[len(o)-6+i]
		if v > 0xff {
			return MAC{}, false
		}
		m[i] = byte(v)
	}
	return m, true
}

// MACFromBytes converts a 6-byte slice (dot1dTpFdbAddress value) to a MAC.
func MACFromBytes(b []byte) (MAC, bool) {
	if len(b) != 6 {
		return MAC{}, false
	}
	var m MAC
	copy(m[:], b)
	return m, true
}
