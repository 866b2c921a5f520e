// Package snmp implements the subset of SNMPv2c that Remos collectors
// depend on: BER encoding, Get/GetNext/GetBulk/Response PDUs, a managed
// agent serving a MIB view, and a client with retries. Two transports are
// provided: real UDP datagrams (used by the live daemons and exercised in
// tests over loopback) and an in-process transport with a modeled
// round-trip latency for large simulated networks.
package snmp

import (
	"fmt"
	"strconv"
	"strings"
)

// OID is an object identifier: a sequence of sub-identifiers.
type OID []uint32

// ParseOID parses dotted decimal notation ("1.3.6.1.2.1.2.2.1.10.3").
// A single leading dot is permitted.
func ParseOID(s string) (OID, error) {
	s = strings.TrimPrefix(s, ".")
	if s == "" {
		return nil, fmt.Errorf("snmp: empty OID")
	}
	parts := strings.Split(s, ".")
	o := make(OID, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("snmp: bad OID component %q: %v", p, err)
		}
		o[i] = uint32(v)
	}
	return o, nil
}

// MustParseOID is ParseOID that panics on error; for constants.
func MustParseOID(s string) OID {
	o, err := ParseOID(s)
	if err != nil {
		panic(err)
	}
	return o
}

// String returns dotted decimal notation.
func (o OID) String() string {
	if len(o) == 0 {
		return ""
	}
	var b strings.Builder
	for i, v := range o {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatUint(uint64(v), 10))
	}
	return b.String()
}

// Cmp compares two OIDs lexicographically: -1, 0, or 1.
func (o OID) Cmp(b OID) int {
	n := len(o)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if o[i] != b[i] {
			if o[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(o) < len(b):
		return -1
	case len(o) > len(b):
		return 1
	}
	return 0
}

// HasPrefix reports whether o begins with prefix p.
func (o OID) HasPrefix(p OID) bool {
	if len(o) < len(p) {
		return false
	}
	for i := range p {
		if o[i] != p[i] {
			return false
		}
	}
	return true
}

// Append returns a new OID of o followed by the given sub-identifiers.
// The receiver is not modified.
func (o OID) Append(sub ...uint32) OID {
	out := make(OID, 0, len(o)+len(sub))
	out = append(out, o...)
	out = append(out, sub...)
	return out
}

// OIDArena builds the OIDs of one request in a single backing array,
// presized by the caller: make(OIDArena, 0, n) for n sub-identifiers in
// all. The OIDs live as long as any one of them does.
type OIDArena []uint32

// Append returns a new OID of base followed by the given sub-identifiers,
// carved from the arena and cap-limited to its own elements, so appending
// to it cannot reach the next one. OIDs carved earlier stay valid when
// the arena outgrows its capacity.
func (a *OIDArena) Append(base OID, sub ...uint32) OID {
	start := len(*a)
	*a = append(append(*a, base...), sub...)
	return OID((*a)[start:len(*a):len(*a)])
}

// Clone returns a copy of the OID.
func (o OID) Clone() OID {
	out := make(OID, len(o))
	copy(out, o)
	return out
}
