package topology

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"remos/internal/lines"
)

// This file provides the two wire encodings of topology graphs: the
// line-oriented ASCII form used by the original Remos TCP protocol, and
// the XML form of the protocol the paper says Remos was transitioning to.

// EncodeText writes the graph in the ASCII protocol form:
//
//	GRAPH <nodes> <links>
//	NODE <id> <kind> <addr|->
//	LINK <from> <to> <capacity> <utilFromTo> <utilToFrom> <latencyNs> <jitterNs>
//	END
//
// Decoding also accepts seven-field LINK lines (the pre-jitter protocol).
//
// Node IDs must not contain whitespace.
func (g *Graph) EncodeText(w io.Writer) error {
	b, err := g.AppendText(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendText appends the graph's EncodeText form to dst and returns the
// extended buffer; on error dst comes back as it was. Room is made once,
// for what the lines usually need: the IDs and addresses as they are, plus
// the keywords, separators and numbers of a line (five numbers of a link
// rarely print longer than twelve bytes each).
func (g *Graph) AppendText(dst []byte) ([]byte, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.nodes = g.appendNodes(sc.nodes[:0])
	defer clear(sc.nodes) // the pool holds no graph's nodes
	nodes := sc.nodes
	size := len("GRAPH 4294967296 4294967296\nEND\n")
	for _, n := range nodes {
		if strings.ContainsAny(n.ID, " \t\n") {
			return dst, fmt.Errorf("topology: node ID %q contains whitespace", n.ID)
		}
		size += len("NODE   virtual \n") + len(n.ID) + len(n.Addr)
	}
	for _, l := range g.links {
		size += len("LINK       \n") + len(l.From) + len(l.To) + 5*12
	}
	b := dst
	if cap(b)-len(b) < size {
		b = make([]byte, len(dst), len(dst)+size)
		copy(b, dst)
	}
	b = append(b, "GRAPH "...)
	b = strconv.AppendInt(b, int64(len(nodes)), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(g.links)), 10)
	b = append(b, '\n')
	for _, n := range nodes {
		b = append(b, "NODE "...)
		b = append(b, n.ID...)
		b = append(b, ' ')
		b = append(b, n.Kind.String()...)
		b = append(b, ' ')
		if n.Addr == "" {
			b = append(b, '-')
		} else {
			b = append(b, n.Addr...)
		}
		b = append(b, '\n')
	}
	for _, l := range g.links {
		b = append(b, "LINK "...)
		b = append(b, l.From...)
		b = append(b, ' ')
		b = append(b, l.To...)
		for _, f := range [3]float64{l.Capacity, l.UtilFromTo, l.UtilToFrom} {
			// 'g' at the shortest precision that round-trips: what %g prints.
			b = strconv.AppendFloat(append(b, ' '), f, 'g', -1, 64)
		}
		b = strconv.AppendInt(append(b, ' '), l.Latency.Nanoseconds(), 10)
		b = strconv.AppendInt(append(b, ' '), l.Jitter.Nanoseconds(), 10)
		b = append(b, '\n')
	}
	return append(b, "END\n"...), nil
}

// missing is the error for a section cut short: a clean end of input
// says the lines never came, any other read error is passed on.
func missing(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// nodeSpan is one NODE line as the node section's text holds it: the
// ID and the address as offsets into that text, the address empty for
// "-" and equal to the ID where the line repeats it.
type nodeSpan struct {
	kind     NodeKind
	id, addr [2]int
}

// DecodeText parses the ASCII form produced by EncodeText. A *bufio.Reader
// is read in place, one line at a time, and is left on the line after END;
// any other reader is wrapped in one, which may read ahead.
//
// The graph is assembled as Assemble does, in one pass over the lines,
// and builds no table: a link's endpoints are found through a pooled index
// of the node lines, which also refuses a second node of an ID. The IDs
// and addresses of all nodes are cut from one string, and the link slab is
// presized from the header only up to slabMax, since its counts are the
// peer's word.
func DecodeText(r io.Reader) (*Graph, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var long []byte // a line longer than br's buffer
	line, err := lines.Read(br, &long)
	if err == io.EOF && len(line) == 0 {
		return nil, fmt.Errorf("topology: empty input")
	}
	if err != nil {
		return nil, missing(err)
	}
	var f [9][]byte
	if lines.Split(line, f[:]) < 3 || string(f[0]) != "GRAPH" {
		return nil, badLine("header", line)
	}
	nn, err1 := strconv.Atoi(string(f[1]))
	nl, err2 := strconv.Atoi(string(f[2]))
	if err1 != nil || err2 != nil {
		return nil, badLine("header", line)
	}
	if nn < 0 || nl < 0 {
		return nil, fmt.Errorf("topology: negative count in header %q", line)
	}

	// The node lines go into one text, their IDs and addresses as spans
	// of it, before the strings the graph keeps are made from it at once.
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.spans, sc.text = sc.spans[:0], sc.text[:0]
	for i := 0; i < nn; i++ {
		line, err := lines.Read(br, &long)
		if err != nil {
			return nil, missing(err)
		}
		if lines.Split(line, f[:]) != 4 || string(f[0]) != "NODE" {
			return nil, badLine("node line", line)
		}
		kind, ok := parseKind(f[2])
		if !ok {
			return nil, fmt.Errorf("topology: unknown node kind %q", f[2])
		}
		sp := nodeSpan{kind: kind, id: [2]int{len(sc.text), len(sc.text) + len(f[1])}}
		sc.text = append(sc.text, f[1]...)
		switch {
		case string(f[3]) == "-":
		case string(f[3]) == string(f[1]):
			sp.addr = sp.id // a host's ID is its address: one string
		default:
			sp.addr = [2]int{len(sc.text), len(sc.text) + len(f[3])}
			sc.text = append(sc.text, f[3]...)
		}
		sc.spans = append(sc.spans, sp)
	}
	s := string(sc.text)
	nodeSlab := make([]Node, len(sc.spans))
	for i, sp := range sc.spans {
		nodeSlab[i] = Node{ID: s[sp.id[0]:sp.id[1]], Kind: sp.kind, Addr: s[sp.addr[0]:sp.addr[1]]}
	}
	if sc.ids == nil {
		sc.ids = make(map[string]int32)
	}
	defer func() { sc.ids = emptied(sc.ids) }()
	for i := range nodeSlab {
		if sc.ids[nodeSlab[i].ID] = int32(i); len(sc.ids) != i+1 {
			return nil, repeatedNode(nodeSlab[i].ID)
		}
	}

	linkSlab := make([]Link, 0, min(nl, slabMax))
	for i := 0; i < nl; i++ {
		line, err := lines.Read(br, &long)
		if err != nil {
			return nil, missing(err)
		}
		nf := lines.Split(line, f[:])
		if (nf != 7 && nf != 8) || string(f[0]) != "LINK" {
			return nil, badLine("link line", line)
		}
		// The endpoints must name nodes already read; the link shares
		// their ID strings.
		from, fromOK := sc.ids[string(f[1])]
		to, toOK := sc.ids[string(f[2])]
		if !fromOK || !toOK {
			return nil, fmt.Errorf("topology: link %s-%s references missing node", f[1], f[2])
		}
		var vals [3]float64
		for j := range vals {
			v, err := strconv.ParseFloat(string(f[3+j]), 64)
			if err != nil {
				return nil, fmt.Errorf("topology: bad link number %q: %v", f[3+j], err)
			}
			vals[j] = v
		}
		ns, err := strconv.ParseInt(string(f[6]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("topology: bad latency %q: %v", f[6], err)
		}
		var jitterNs int64
		if nf == 8 {
			jitterNs, err = strconv.ParseInt(string(f[7]), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("topology: bad jitter %q: %v", f[7], err)
			}
		}
		linkSlab = append(linkSlab, Link{
			From: nodeSlab[from].ID, To: nodeSlab[to].ID,
			Capacity: vals[0], UtilFromTo: vals[1], UtilToFrom: vals[2],
			Latency: time.Duration(ns), Jitter: time.Duration(jitterNs),
		})
	}
	// A last line with no newline counts: an unterminated END ends the graph.
	line, err = lines.Read(br, &long)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if string(bytes.TrimSpace(line)) != "END" {
		return nil, fmt.Errorf("topology: missing END trailer")
	}
	g := &Graph{nodeSlab: nodeSlab}
	g.assembleLinks(linkSlab)
	return g, nil
}

// repeatedNode is the error for a second node of an ID: the encoders
// never write one.
func repeatedNode(id string) error {
	return fmt.Errorf("topology: repeated node ID %q", id)
}

// badLine is the error for a line DecodeText cannot read as what.
func badLine(what string, line []byte) error {
	return fmt.Errorf("topology: bad %s %q", what, line)
}

// xmlGraph mirrors Graph for the XML protocol.
type xmlGraph struct {
	XMLName xml.Name  `xml:"topology"`
	Nodes   []xmlNode `xml:"node"`
	Links   []xmlLink `xml:"link"`
}

type xmlNode struct {
	ID   string `xml:"id,attr"`
	Kind string `xml:"kind,attr"`
	Addr string `xml:"addr,attr,omitempty"`
}

type xmlLink struct {
	From       string  `xml:"from,attr"`
	To         string  `xml:"to,attr"`
	Capacity   float64 `xml:"capacity,attr"`
	UtilFromTo float64 `xml:"utilFromTo,attr"`
	UtilToFrom float64 `xml:"utilToFrom,attr"`
	LatencyNs  int64   `xml:"latencyNs,attr"`
	JitterNs   int64   `xml:"jitterNs,attr,omitempty"`
}

// EncodeXML writes the graph in the XML protocol form.
func (g *Graph) EncodeXML(w io.Writer) error {
	x := xmlGraph{}
	for _, n := range g.Nodes() {
		x.Nodes = append(x.Nodes, xmlNode{ID: n.ID, Kind: n.Kind.String(), Addr: n.Addr})
	}
	for _, l := range g.links {
		x.Links = append(x.Links, xmlLink{
			From: l.From, To: l.To, Capacity: l.Capacity,
			UtilFromTo: l.UtilFromTo, UtilToFrom: l.UtilToFrom,
			LatencyNs: l.Latency.Nanoseconds(),
			JitterNs:  l.Jitter.Nanoseconds(),
		})
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	return enc.Encode(x)
}

// DecodeXML parses the XML form produced by EncodeXML. Like DecodeText, it
// refuses a second node of an ID.
func DecodeXML(r io.Reader) (*Graph, error) {
	var x xmlGraph
	if err := xml.NewDecoder(r).Decode(&x); err != nil {
		return nil, err
	}
	g := NewGraph()
	for _, n := range x.Nodes {
		kind, err := ParseNodeKind(n.Kind)
		if err != nil {
			return nil, err
		}
		if g.Node(n.ID) != nil {
			return nil, repeatedNode(n.ID)
		}
		g.AddNode(Node{ID: n.ID, Kind: kind, Addr: n.Addr})
	}
	for _, l := range x.Links {
		if _, err := g.AddLink(Link{
			From: l.From, To: l.To, Capacity: l.Capacity,
			UtilFromTo: l.UtilFromTo, UtilToFrom: l.UtilToFrom,
			Latency: time.Duration(l.LatencyNs), Jitter: time.Duration(l.JitterNs),
		}); err != nil {
			return nil, err
		}
	}
	return g, nil
}
