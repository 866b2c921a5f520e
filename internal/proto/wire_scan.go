package proto

// Number parsing and formatting for the ASCII wire path. The
// request/response loops run once per served query, so they follow the
// BER codec's zero-allocation discipline: lines are read in place from
// the connection's pooled bufio.Reader and split without building a
// []string (package lines), and numbers parse from the line's bytes and
// append into stack scratch instead of going through fmt.

import (
	"bufio"
	"bytes"
	"io"
	"net/netip"
	"strconv"
	"sync"
)

// Pools for the per-connection reader and the message assembly buffers
// (server responses, client requests). Connections come and go with
// clients; pooling keeps a churn of short-lived connections from paying
// a fresh 4KB buffer each.
var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 4096) }}
	respPool   = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// emptyReader is what pooled readers are Reset onto before returning to
// the pool, so a pooled reader never pins a dead connection.
type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, io.EOF }

// parseInt is a minimal decimal parser for wire counts and timestamps
// (optional leading minus, digits only), avoiding the []byte->string
// conversion strconv would need.
func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	if b[0] == '-' {
		neg = true
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := int64(c - '0')
		if v > (1<<63-1-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	if neg {
		v = -v
	}
	return v, true
}

// attrAddr is netip.ParseAddr, minus the string it allocates for the
// dotted quads the wire mostly carries. Any other text is ParseAddr's
// to judge. Every address on the ASCII lines and in the XML documents
// parses here; a caller that reports ParseAddr's error calls ParseAddr
// again on the failure path only.
func attrAddr(v []byte) (netip.Addr, bool) {
	if quad, ok := dottedQuad(v); ok {
		return netip.AddrFrom4(quad), true
	}
	a, err := netip.ParseAddr(string(v))
	return a, err == nil
}

// addrErr is ParseAddr's error for text attrAddr refused, so a bad
// address reads as it did when ParseAddr parsed every one.
func addrErr(v []byte) error {
	_, err := netip.ParseAddr(string(v))
	return err
}

// dottedQuad takes four decimal fields of at most 255, none with a
// leading zero.
func dottedQuad(v []byte) (quad [4]byte, ok bool) {
	field, digits := 0, 0
	for _, c := range v {
		switch {
		case c == '.' && digits > 0 && field < 3:
			field, digits = field+1, 0
		case c >= '0' && c <= '9' && (digits == 0 || quad[field] > 0) && int(quad[field])*10+int(c-'0') <= 255:
			quad[field] = quad[field]*10 + c - '0'
			digits++
		default:
			return quad, false
		}
	}
	return quad, field == 3 && digits > 0
}

// parseFloat parses a float token. The string conversion does not
// escape strconv.ParseFloat, so it stays off the heap.
func parseFloat(b []byte) (float64, bool) {
	v, err := strconv.ParseFloat(string(b), 64)
	return v, err == nil
}

// bufInt / bufFloat append a formatted number to the response buffer
// through stack scratch — the fmt-free path for the per-sample lines.
func bufInt(buf *bytes.Buffer, v int64) {
	var tmp [24]byte
	buf.Write(strconv.AppendInt(tmp[:0], v, 10))
}

func bufFloat(buf *bytes.Buffer, v float64) {
	var tmp [32]byte
	buf.Write(strconv.AppendFloat(tmp[:0], v, 'g', -1, 64))
}
