package proto

// The codec of the hot XML documents: the <flows> and <flowresult> bodies
// of POST /flows and the <query> body of POST /query. Their shapes are
// fixed, so they are written by append and read by a scanner instead of
// through encoding/xml's reflection.
//
// The encoders emit byte for byte what xml.Marshal emits for the xml*
// structs in flows.go. The scanner accepts only that canonical form —
// the known elements, double-quoted attributes from the known set, each
// at most once, values and text of plain bytes (no entity, no byte
// encoding/xml would rewrite or reject), "/>" or "></x>" — and only when
// every value in it parses. On anything else it reports !ok, having
// touched nothing, and the decode* functions hand the same bytes to
// xml.Unmarshal: which documents are accepted, and the error a rejected
// one is answered with, stay encoding/xml's.

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"remos/internal/collector"
	"remos/internal/modeler"
)

// plain reports whether every byte of s stands for itself on both sides
// of encoding/xml: printable ASCII outside the markup and quote
// characters the marshaller escapes.
func plain[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x7f, c == '"', c == '\'', c == '&', c == '<', c == '>':
			return false
		}
	}
	return true
}

// bufText appends s as attribute text, escaped the way the marshaller
// escapes it when a byte needs it.
func bufText(buf *bytes.Buffer, s string) {
	if plain(s) {
		buf.WriteString(s)
		return
	}
	xml.EscapeText(buf, []byte(s))
}

// bufAddr appends an address as attribute text, as Addr.String renders
// it (only a zone can need escaping).
func bufAddr(buf *bytes.Buffer, a netip.Addr) {
	if !a.IsValid() {
		buf.WriteString(a.String()) // AppendTo renders the zero Addr as nothing
		return
	}
	var tmp [48]byte
	if s := a.AppendTo(tmp[:0]); plain(s) {
		buf.Write(s)
	} else {
		xml.EscapeText(buf, bytes.Clone(s)) // the clone keeps tmp on the stack
	}
}

// encodeFlowsQuery appends the <flows> document xml.Marshal renders for
// an xmlFlowsQuery.
func encodeFlowsQuery(buf *bytes.Buffer, flows []modeler.Flow) {
	buf.WriteString("<flows>")
	for i := range flows {
		f := &flows[i]
		buf.WriteString(`<flow src="`)
		bufAddr(buf, f.Src)
		buf.WriteString(`" dst="`)
		bufAddr(buf, f.Dst)
		if f.Demand != 0 { // omitempty
			buf.WriteString(`" demand="`)
			bufFloat(buf, f.Demand)
		}
		buf.WriteString(`"></flow>`)
	}
	buf.WriteString("</flows>")
}

// encodeFlowsResult appends the <flowresult> document xml.Marshal
// renders for an xmlFlowsResult.
func encodeFlowsResult(buf *bytes.Buffer, infos []modeler.FlowInfo) {
	buf.WriteString("<flowresult>")
	for i := range infos {
		fi := &infos[i]
		buf.WriteString(`<flow src="`)
		bufAddr(buf, fi.Flow.Src)
		buf.WriteString(`" dst="`)
		bufAddr(buf, fi.Flow.Dst)
		buf.WriteString(`" avail="`)
		bufFloat(buf, fi.Available)
		buf.WriteString(`" latns="`)
		bufInt(buf, fi.Latency.Nanoseconds())
		buf.WriteString(`" jitns="`)
		bufInt(buf, fi.Jitter.Nanoseconds())
		buf.WriteString(`" path="`)
		for j, id := range fi.Path {
			if j > 0 {
				buf.WriteByte(' ')
			}
			bufText(buf, id)
		}
		buf.WriteString(`"></flow>`)
	}
	buf.WriteString("</flowresult>")
}

// xmlScan is a cursor over one document in canonical form.
type xmlScan struct {
	b []byte
	i int
}

// lit consumes tok if it is next.
func (s *xmlScan) lit(tok string) bool {
	if len(s.b)-s.i < len(tok) || string(s.b[s.i:s.i+len(tok)]) != tok {
		return false
	}
	s.i += len(tok)
	return true
}

// space consumes a run of XML white space (space, \t, \n, \r) and
// reports whether there was any.
func (s *xmlScan) space() bool {
	start := s.i
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
	return s.i > start
}

// run consumes plain bytes up to the delimiter, which stays.
func (s *xmlScan) run(delim byte) ([]byte, bool) {
	n := bytes.IndexByte(s.b[s.i:], delim)
	if n < 0 || !plain(s.b[s.i:s.i+n]) {
		return nil, false
	}
	v := s.b[s.i : s.i+n : s.i+n]
	s.i += n
	return v, true
}

// open consumes the start tag of element name, storing the value of
// attribute names[i] in vals[i] (non-nil once seen, even when empty);
// closed reports the self-closing form. An attribute outside names or
// one given twice fails.
func (s *xmlScan) open(name string, names []string, vals [][]byte) (closed, ok bool) {
	if !s.lit("<") || !s.lit(name) {
		return false, false
	}
attrs:
	for {
		sp := s.space()
		switch {
		case s.lit("/>"):
			return true, true
		case s.lit(">"):
			return false, true
		case !sp:
			return false, false
		}
		key, ok := s.run('=')
		if !ok || !s.lit(`="`) {
			return false, false
		}
		for k, n := range names {
			if string(key) != n {
				continue
			}
			if vals[k] != nil {
				return false, false
			}
			if vals[k], ok = s.run('"'); !ok {
				return false, false
			}
			s.i++ // the closing quote
			continue attrs
		}
		return false, false
	}
}

// end consumes the end tag of element name if it is next.
func (s *xmlScan) end(name string) bool {
	at := s.i
	if s.lit("</") && s.lit(name) && s.lit(">") {
		return true
	}
	s.i = at
	return false
}

// empty consumes one element without content, in either closing form.
func (s *xmlScan) empty(name string, names []string, vals [][]byte) bool {
	closed, ok := s.open(name, names, vals)
	return ok && (closed || s.end(name))
}

// children drives the scan of a document whose root holds only child
// elements: child is called with the cursor at each one until the root
// closes, and nothing but whitespace may follow.
func (s *xmlScan) children(root string, names []string, vals [][]byte, child func() bool) bool {
	s.space()
	closed, ok := s.open(root, names, vals)
	if !ok {
		return false
	}
	for !closed {
		s.space()
		if s.end(root) {
			break
		}
		if !child() {
			return false
		}
	}
	s.space()
	return s.i == len(s.b)
}

// A number attribute decodes as encoding/xml decodes it: absent or empty
// is zero, anything else whatever strconv makes of it.

func attrFloat(v []byte) (float64, bool) {
	if len(v) == 0 {
		return 0, true
	}
	return parseFloat(v)
}

func attrInt(v []byte) (int64, bool) {
	if len(v) == 0 {
		return 0, true
	}
	return parseInt(v)
}

// attrBool takes the two spellings the marshaller writes; an absent
// attribute is false.
func attrBool(v []byte) (val, ok bool) {
	switch string(v) {
	case "true":
		return true, true
	case "false":
		return false, true
	}
	return false, v == nil
}

var (
	flowQueryAttrs  = []string{"src", "dst", "demand"}
	flowResultAttrs = []string{"src", "dst", "avail", "latns", "jitns", "path"}
	queryAttrs      = []string{"history", "predictions"}
)

// scanFlowsQuery decodes a canonical <flows> document.
func scanFlowsQuery(b []byte) ([]modeler.Flow, bool) {
	s := xmlScan{b: b}
	flows := make([]modeler.Flow, 0)
	ok := s.children("flows", nil, nil, func() bool {
		var v [3][]byte
		if !s.empty("flow", flowQueryAttrs, v[:]) {
			return false
		}
		src, ok1 := attrAddr(v[0])
		dst, ok2 := attrAddr(v[1])
		dem, ok3 := attrFloat(v[2])
		flows = append(flows, modeler.Flow{Src: src, Dst: dst, Demand: dem})
		return ok1 && ok2 && ok3
	})
	return flows, ok
}

// scanFlowsResult decodes a canonical <flowresult> document.
func scanFlowsResult(b []byte) ([]modeler.FlowInfo, bool) {
	s := xmlScan{b: b}
	infos := make([]modeler.FlowInfo, 0)
	ok := s.children("flowresult", nil, nil, func() bool {
		var v [6][]byte
		if !s.empty("flow", flowResultAttrs, v[:]) {
			return false
		}
		src, ok1 := attrAddr(v[0])
		dst, ok2 := attrAddr(v[1])
		avail, ok3 := attrFloat(v[2])
		lat, ok4 := attrInt(v[3])
		jit, ok5 := attrInt(v[4])
		infos = append(infos, flowInfo(src, dst, avail, lat, jit, string(v[5])))
		return ok1 && ok2 && ok3 && ok4 && ok5
	})
	return infos, ok
}

// scanQuery decodes a canonical <query> document.
func scanQuery(b []byte) (collector.Query, bool) {
	s := xmlScan{b: b}
	var q collector.Query
	var v [2][]byte
	ok := s.children("query", queryAttrs, v[:], func() bool {
		closed, ok := s.open("host", nil, nil)
		if !ok || closed {
			return false
		}
		text, ok := s.run('<')
		if !ok || !s.end("host") {
			return false
		}
		a, ok := attrAddr(text)
		q.Hosts = append(q.Hosts, a)
		return ok
	})
	hist, ok1 := attrBool(v[0])
	pred, ok2 := attrBool(v[1])
	q.WithHistory, q.WithPredictions = hist, pred
	return q, ok && ok1 && ok2
}

// flowInfo builds one decoded answer; path is the space-joined node IDs.
func flowInfo(src, dst netip.Addr, avail float64, latNs, jitNs int64, path string) modeler.FlowInfo {
	fi := modeler.FlowInfo{
		Flow:      modeler.Flow{Src: src, Dst: dst},
		Available: avail,
		Latency:   time.Duration(latNs),
		Jitter:    time.Duration(jitNs),
		Predicted: avail,
	}
	if path != "" {
		fi.Path = strings.Split(path, " ")
	}
	return fi
}

// decodeFlowsQuery decodes the body of POST /flows.
func decodeFlowsQuery(body []byte) ([]modeler.Flow, error) {
	if flows, ok := scanFlowsQuery(body); ok {
		return flows, nil
	}
	return unmarshalFlowsQuery(body)
}

// decodeFlowsResult decodes the answer of POST /flows.
func decodeFlowsResult(body []byte) ([]modeler.FlowInfo, error) {
	if infos, ok := scanFlowsResult(body); ok {
		return infos, nil
	}
	return unmarshalFlowsResult(body)
}

// decodeQuery decodes the body of POST /query.
func decodeQuery(body []byte) (collector.Query, error) {
	if q, ok := scanQuery(body); ok {
		return q, nil
	}
	return unmarshalQuery(body)
}

// The general decoders: encoding/xml over the xml* structs, for every
// document outside the canonical form and for the error that answers a
// malformed one.

func unmarshalFlowsQuery(body []byte) ([]modeler.Flow, error) {
	var xq xmlFlowsQuery
	if err := xml.Unmarshal(body, &xq); err != nil {
		return nil, err
	}
	flows := make([]modeler.Flow, 0, len(xq.Flows))
	for _, xf := range xq.Flows {
		src, err := netip.ParseAddr(xf.Src)
		if err != nil {
			return nil, fmt.Errorf("proto: bad src %q", xf.Src)
		}
		dst, err := netip.ParseAddr(xf.Dst)
		if err != nil {
			return nil, fmt.Errorf("proto: bad dst %q", xf.Dst)
		}
		flows = append(flows, modeler.Flow{Src: src, Dst: dst, Demand: xf.Demand})
	}
	return flows, nil
}

func unmarshalFlowsResult(body []byte) ([]modeler.FlowInfo, error) {
	var xr xmlFlowsResult
	if err := xml.Unmarshal(body, &xr); err != nil {
		return nil, err
	}
	infos := make([]modeler.FlowInfo, 0, len(xr.Flows))
	for _, xf := range xr.Flows {
		src, err := netip.ParseAddr(xf.Src)
		if err != nil {
			return nil, fmt.Errorf("proto: bad flow answer src %q", xf.Src)
		}
		dst, err := netip.ParseAddr(xf.Dst)
		if err != nil {
			return nil, fmt.Errorf("proto: bad flow answer dst %q", xf.Dst)
		}
		infos = append(infos, flowInfo(src, dst, xf.Avail, xf.LatencyNs, xf.JitterNs, xf.Path))
	}
	return infos, nil
}

func unmarshalQuery(body []byte) (collector.Query, error) {
	var xq xmlQuery
	if err := xml.Unmarshal(body, &xq); err != nil {
		return collector.Query{}, err
	}
	q := collector.Query{WithHistory: xq.History, WithPredictions: xq.Predictions}
	for _, h := range xq.Hosts {
		a, err := netip.ParseAddr(h)
		if err != nil {
			return collector.Query{}, fmt.Errorf("proto: bad host %q", h)
		}
		q.Hosts = append(q.Hosts, a)
	}
	return q, nil
}
