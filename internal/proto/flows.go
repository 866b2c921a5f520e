package proto

// The FLOWS verb: flow queries answered server-side. A topology QUERY
// ships the whole annotated graph so the client-side Modeler can run
// its own calculations; a FLOWS exchange instead asks the server's
// Modeler (snapshot-backed in remosd) and carries back one line per
// flow — available bandwidth, latency, jitter, path. For the warm
// serving path that turns a graph encode/decode round trip into a few
// dozen bytes each way.
//
// Grammar (request):
//
//	FLOWS <n>
//	<src> <dst> <demand>      (n lines; demand 0 = elastic)
//	END
//
// Response:
//
//	OKF <n>
//	<avail> <lat_ns> <jit_ns> <k> <node1> ... <nodek>
//	DONE
//
// or the shared "ERR [CODE] message" line. The same exchange rides the
// XML protocol as POST /flows with <flows><flow src dst demand/></flows>.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"time"

	"remos/internal/lines"
	"remos/internal/modeler"
)

// FlowAnswerer answers flow queries server-side; the Modeler implements
// it. remosd attaches its snapshot-backed Modeler so FLOWS exchanges
// are answered from the current topology generation without a
// collector round trip.
type FlowAnswerer interface {
	GetFlowsContext(ctx context.Context, flows []modeler.Flow, opt modeler.FlowOptions) ([]modeler.FlowInfo, error)
}

// writeFlowsQuery renders one FLOWS request into a single Write, same
// pooled-buffer discipline as writeQuery.
func writeFlowsQuery(w io.Writer, flows []modeler.Flow) error {
	buf := respPool.Get().(*bytes.Buffer)
	defer respPool.Put(buf)
	buf.Reset()
	buf.WriteString("FLOWS ")
	bufInt(buf, int64(len(flows)))
	buf.WriteByte('\n')
	var tmp [48]byte
	for _, f := range flows {
		buf.Write(f.Src.AppendTo(tmp[:0]))
		buf.WriteByte(' ')
		buf.Write(f.Dst.AppendTo(tmp[:0]))
		buf.WriteByte(' ')
		bufFloat(buf, f.Demand)
		buf.WriteByte('\n')
	}
	buf.WriteString("END\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// readFlowsBody parses a FLOWS request whose header line was already
// consumed by the server's verb dispatch.
func readFlowsBody(line []byte, r *bufio.Reader, scratch *[]byte) ([]modeler.Flow, error) {
	var f [3][]byte
	nf := lines.Split(line, f[:2]) // FLOWS, checked by the dispatcher, and the count
	n, ok := parseInt(f[1])
	if nf != 2 || !ok || n < 0 || n > 1<<20 {
		return nil, fmt.Errorf("proto: bad flows header %q", bytes.TrimSpace(line))
	}
	flows := make([]modeler.Flow, 0, n)
	for i := int64(0); i < n; i++ {
		line, err := lines.Read(r, scratch)
		if err != nil {
			return nil, err
		}
		nf := lines.Split(line, f[:])
		dem, ok := parseFloat(f[2])
		if nf != 3 || !ok {
			return nil, fmt.Errorf("proto: bad flow line %q", bytes.TrimSpace(line))
		}
		src, err := netip.ParseAddr(string(f[0]))
		if err != nil {
			return nil, fmt.Errorf("proto: bad flow src %q: %w", f[0], err)
		}
		dst, err := netip.ParseAddr(string(f[1]))
		if err != nil {
			return nil, fmt.Errorf("proto: bad flow dst %q: %w", f[1], err)
		}
		flows = append(flows, modeler.Flow{Src: src, Dst: dst, Demand: dem})
	}
	line, err := lines.Read(r, scratch)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(bytes.TrimSpace(line), []byte("END")) {
		return nil, fmt.Errorf("proto: missing END, got %q", bytes.TrimSpace(line))
	}
	return flows, nil
}

// writeFlowsResult renders one FLOWS answer into buf.
func writeFlowsResult(buf *bytes.Buffer, infos []modeler.FlowInfo) {
	buf.WriteString("OKF ")
	bufInt(buf, int64(len(infos)))
	buf.WriteByte('\n')
	for _, fi := range infos {
		bufFloat(buf, fi.Available)
		buf.WriteByte(' ')
		bufInt(buf, fi.Latency.Nanoseconds())
		buf.WriteByte(' ')
		bufInt(buf, fi.Jitter.Nanoseconds())
		buf.WriteByte(' ')
		bufInt(buf, int64(len(fi.Path)))
		for _, id := range fi.Path {
			buf.WriteByte(' ')
			buf.WriteString(id)
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("DONE\n")
}

// readFlowsResult parses one FLOWS answer (or the shared ERR line).
func readFlowsResult(r *bufio.Reader, scratch *[]byte) ([]modeler.FlowInfo, error) {
	line, err := lines.Read(r, scratch)
	if err != nil {
		return nil, err
	}
	head := bytes.TrimSpace(line)
	if bytes.HasPrefix(head, []byte("ERR ")) {
		return nil, decodeErrLine(string(head[len("ERR "):]))
	}
	var f [4][]byte
	nf := lines.Split(head, f[:2])
	if string(f[0]) != "OKF" {
		return nil, fmt.Errorf("proto: unexpected flows response %q", head)
	}
	n, ok := parseInt(f[1])
	if nf != 2 || !ok || n < 0 {
		return nil, fmt.Errorf("proto: bad flows response header %q", head)
	}
	infos := make([]modeler.FlowInfo, 0, presize(n))
	for i := int64(0); i < n; i++ {
		line, err := lines.Read(r, scratch)
		if err != nil {
			return nil, err
		}
		rest := line
		for j := range f {
			f[j], rest = lines.Cut(rest)
		}
		avail, ok1 := parseFloat(f[0])
		latNs, ok2 := parseInt(f[1])
		jitNs, ok3 := parseInt(f[2])
		k, ok4 := parseInt(f[3])
		if !ok1 || !ok2 || !ok3 || !ok4 || k < 0 {
			return nil, fmt.Errorf("proto: bad flow answer line %q", bytes.TrimSpace(line))
		}
		fi := modeler.FlowInfo{
			Available: avail,
			Latency:   time.Duration(latNs),
			Jitter:    time.Duration(jitNs),
			Predicted: avail,
		}
		if k > 0 {
			fi.Path = make([]string, 0, presize(k))
			for j := int64(0); j < k; j++ {
				var id []byte
				if id, rest = lines.Cut(rest); id == nil {
					return nil, fmt.Errorf("proto: short flow path in %q", bytes.TrimSpace(line))
				}
				fi.Path = append(fi.Path, string(id))
			}
		}
		if extra, _ := lines.Cut(rest); extra != nil {
			return nil, fmt.Errorf("proto: trailing tokens in flow answer %q", bytes.TrimSpace(line))
		}
		infos = append(infos, fi)
	}
	line, err = lines.Read(r, scratch)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(bytes.TrimSpace(line), []byte("DONE")) {
		return nil, fmt.Errorf("proto: missing DONE trailer")
	}
	return infos, nil
}

// flows serves one FLOWS exchange on an ASCII connection.
func (c *asciiConn) flows(line []byte) (keep bool, err error) {
	flows, err := readFlowsBody(line, c.r, &c.scratch)
	if err != nil {
		return false, nil // garbage mid-request: drop the connection
	}
	if err := c.srv.core.canFlow(); err != nil {
		return true, err
	}
	release, err := c.srv.core.admit(context.Background(), c.ten, c.tier)
	if err != nil {
		return true, err
	}
	infos, tr, err := c.srv.core.flows(context.Background(), flows)
	release()
	if err != nil {
		return true, err
	}
	sp := tr.Start("encode")
	buf := respPool.Get().(*bytes.Buffer)
	buf.Reset()
	writeFlowsResult(buf, infos)
	sp.End()
	c.srv.core.traces.Observe(tr)
	_, werr := c.w.Write(buf.Bytes())
	respPool.Put(buf)
	return werr == nil, nil
}

// Flows asks the remote server's Modeler for flow answers over the
// ASCII protocol. It shares the client connection, deadline and
// reconnect discipline with Collect.
func (c *TCPClient) Flows(ctx context.Context, flows []modeler.Flow) ([]modeler.FlowInfo, error) {
	var infos []modeler.FlowInfo
	err := c.exchange(ctx, func(w io.Writer) error {
		return writeFlowsQuery(w, flows)
	}, func(r *bufio.Reader, scratch *[]byte) error {
		var err error
		infos, err = readFlowsResult(r, scratch)
		return err
	})
	if err != nil {
		return nil, err
	}
	// The wire answer is positional; re-attach the requests.
	for i := range infos {
		if i < len(flows) {
			infos[i].Flow = flows[i]
		}
	}
	return infos, nil
}

// The XML bodies of POST /flows: the shapes the general decoders
// unmarshal into and the tests marshal as the encoders' reference (see
// xml_codec.go).
type xmlFlowsQuery struct {
	XMLName xml.Name     `xml:"flows"`
	Flows   []xmlFlowReq `xml:"flow"`
}

type xmlFlowReq struct {
	Src    string  `xml:"src,attr"`
	Dst    string  `xml:"dst,attr"`
	Demand float64 `xml:"demand,attr,omitempty"`
}

type xmlFlowsResult struct {
	XMLName xml.Name      `xml:"flowresult"`
	Flows   []xmlFlowInfo `xml:"flow"`
}

type xmlFlowInfo struct {
	Src       string  `xml:"src,attr"`
	Dst       string  `xml:"dst,attr"`
	Avail     float64 `xml:"avail,attr"`
	LatencyNs int64   `xml:"latns,attr"`
	JitterNs  int64   `xml:"jitns,attr"`
	Path      string  `xml:"path,attr"` // space-separated node IDs
}

// handleFlows serves POST /flows on the XML protocol.
func (s *HTTPServer) handleFlows(w http.ResponseWriter, r *http.Request) error {
	if err := s.core.canFlow(); err != nil {
		return err
	}
	var flows []modeler.Flow
	release, err := s.admitPost(r, func(body []byte) (err error) {
		flows, err = decodeFlowsQuery(body)
		return err
	})
	if err != nil {
		return err
	}
	defer release()
	infos, tr, err := s.core.flows(r.Context(), flows)
	if err != nil {
		return err
	}
	sp := tr.Start("encode")
	buf := respPool.Get().(*bytes.Buffer)
	defer respPool.Put(buf)
	buf.Reset()
	encodeFlowsResult(buf, infos)
	sp.End()
	s.core.traces.Observe(tr)
	return writeXML(w, buf.Bytes(), nil)
}

// Flows asks the remote server's Modeler for flow answers over the XML
// protocol.
func (c *HTTPClient) Flows(ctx context.Context, flows []modeler.Flow) ([]modeler.FlowInfo, error) {
	tmpl, err := c.templates()
	if err != nil {
		return nil, err
	}
	buf := respPool.Get().(*bytes.Buffer)
	buf.Reset()
	encodeFlowsQuery(buf, flows)
	// The transport may still be reading a request body after the
	// exchange returns, so the body is a copy and not the pooled buffer.
	body := bytes.Clone(buf.Bytes())
	respPool.Put(buf)
	var infos []modeler.FlowInfo
	err = c.post(ctx, tmpl.flows, body, func(out []byte) (err error) {
		infos, err = decodeFlowsResult(out)
		return err
	})
	return infos, err
}
