package proto

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"remos/internal/admission"
	"remos/internal/collector"
	"remos/internal/lines"
	"remos/internal/modeler"
	"remos/internal/topology"
)

// wireQuery renders one on-the-wire query for nHosts hosts.
func wireQuery(t testing.TB, nHosts int) []byte {
	t.Helper()
	q := collector.Query{WithHistory: true}
	for i := 0; i < nHosts; i++ {
		q.Hosts = append(q.Hosts, netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}))
	}
	var buf bytes.Buffer
	if err := writeQuery(&buf, q); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadQueryAllocationBudget pins the steady-state parse cost of the
// serve hot path. Before the byte-level scanner this was ~12 allocations
// for a 2-host query (ReadString per line, strings.Split, Sscanf); the
// budget asserts the >=50% reduction holds: one Hosts slice, one
// ParseAddr string per host, and nothing per line.
func TestReadQueryAllocationBudget(t *testing.T) {
	wire := wireQuery(t, 2)
	r := bufio.NewReaderSize(nil, 4096)
	var scratch []byte
	src := bytes.NewReader(nil)
	if n := testing.AllocsPerRun(200, func() {
		src.Reset(wire)
		r.Reset(src)
		q, err := readQuery(r, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if len(q.Hosts) != 2 || !q.WithHistory {
			t.Fatalf("bad query %+v", q)
		}
	}); n > 4 {
		t.Fatalf("readQuery allocates %.0f times per 2-host query, want <= 4", n)
	}
}

// TestWriteQueryAllocationBudget: the request writer is pooled end to
// end; after warm-up it should not allocate at all. The race detector
// makes sync.Pool drop items at random to shake out races, so the
// zero-alloc property only holds in normal builds.
func TestWriteQueryAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	q := collector.Query{
		Hosts:       []netip.Addr{netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")},
		WithHistory: true,
	}
	if err := writeQuery(io.Discard, q); err != nil { // warm the pool
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := writeQuery(io.Discard, q); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("writeQuery allocates %.0f times per call, want 0", n)
	}
}

// staticFlows answers every flow query with the same prebuilt slice, so
// the exchange below measures the protocol and not the answerer.
type staticFlows struct{ infos []modeler.FlowInfo }

func (s staticFlows) GetFlowsContext(context.Context, []modeler.Flow, modeler.FlowOptions) ([]modeler.FlowInfo, error) {
	return s.infos, nil
}

// TestServeFlowsAllocationBudget pins one server-side FLOWS exchange —
// decode off a pooled reader into the connection's flow buffer,
// admission, the core's verb, encode — for two flows, answered by an
// answerer that allocates nothing. It cost 7 allocations when the flows
// were a fresh slice, every address a ParseAddr string and the
// admission release a closure and a sync.Once.
func TestServeFlowsAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	ctrl := admission.New(admission.Config{})
	defer ctrl.Close()
	answer := []modeler.FlowInfo{
		{Available: 6e6, Path: []string{"10.0.1.1", "r1", "10.0.2.1"}},
		{Available: 7e6, Path: []string{"10.0.2.1", "r1", "10.0.1.1"}},
	}
	srv := &TCPServer{}
	srv.core = newCore("ascii", nil, staticFlows{answer}, nil, ctrl, nil, nil)
	c := &asciiConn{srv: srv, r: bufio.NewReaderSize(nil, 4096), w: lockedWriter{w: io.Discard}}
	c.ten, c.tier, _ = srv.core.identify("", "", "")
	wire := []byte("FLOWS 2\n10.0.1.1 10.0.2.1 0\n10.0.2.1 10.0.1.1 3e+06\nEND\n")
	src := bytes.NewReader(nil)
	n := testing.AllocsPerRun(200, func() {
		src.Reset(wire)
		c.r.Reset(src)
		line, err := lines.Read(c.r, &c.scratch)
		if err != nil {
			t.Fatal(err)
		}
		if keep, err := c.flows(line); !keep || err != nil {
			t.Fatalf("FLOWS exchange failed: keep=%t err=%v", keep, err)
		}
	})
	t.Logf("one FLOWS exchange: %.0f allocations", n)
	if n > serveFlowsAllocs {
		t.Fatalf("one FLOWS exchange allocates %.0f times, want <= %d", n, serveFlowsAllocs)
	}
}

// serveFlowsAllocs is the server's FLOWS budget: what it measures, the
// admission release alone. Budgets only get tighter.
const serveFlowsAllocs = 1

// TestReadFlowsResultAllocationBudget pins the client's half of a FLOWS
// exchange: readFlowsResult of a 1-flow and of a 16-flow reply off a
// pooled reader. Whatever the flow count, a reply is the answers, one
// string its hop IDs are cut from and one slab its paths are cut from.
// With a slice per path and a string per hop, a 1-flow reply of three
// hops cost 5 allocations and the 16-flow one 65.
func TestReadFlowsResultAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	for _, nFlows := range []int{1, 16} {
		infos := make([]modeler.FlowInfo, nFlows)
		for i := range infos {
			infos[i] = modeler.FlowInfo{Available: 6e6, Latency: 14 * time.Millisecond,
				Path: []string{fmt.Sprintf("10.0.1.%d", i+1), "r1", fmt.Sprintf("10.0.2.%d", i+1)}}
		}
		var wire bytes.Buffer
		writeFlowsResult(&wire, infos)
		r := bufio.NewReaderSize(nil, 4096)
		src := bytes.NewReader(nil)
		var scratch []byte
		var got []modeler.FlowInfo
		n := testing.AllocsPerRun(200, func() {
			src.Reset(wire.Bytes())
			r.Reset(src)
			var err error
			if got, err = readFlowsResult(r, &scratch); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("readFlowsResult of %d flows: %.0f allocations", nFlows, n)
		if len(got) != nFlows || got[nFlows-1].Path[2] != infos[nFlows-1].Path[2] {
			t.Fatalf("the %d-flow reply decoded to %+v", nFlows, got)
		}
		if n > readFlowsResultAllocs {
			t.Fatalf("readFlowsResult of %d flows allocates %.0f times, want <= %d", nFlows, n, readFlowsResultAllocs)
		}
	}
}

// readFlowsResultAllocs is readFlowsResult's budget for a reply of any
// flow count. Budgets only get tighter.
const readFlowsResultAllocs = 3

// staticCollector answers every QUERY with the same prebuilt result, so
// the exchange below measures the protocol and not the collector.
type staticCollector struct{ res *collector.Result }

func (staticCollector) Name() string { return "static" }

func (s staticCollector) Collect(collector.Query) (*collector.Result, error) { return s.res, nil }

// campusReply is a graph of the shape and size a cold 32-host campus
// QUERY answers with: four gateways on a core switch, their aggregation
// and edge switches, and 32 hosts under the edges.
func campusReply() *topology.Graph {
	g := topology.NewGraph()
	link := func(from, to string, capacity float64) {
		g.AddLink(topology.Link{From: from, To: to, Capacity: capacity, UtilFromTo: 1234567.5, UtilToFrom: 0.25, Latency: time.Millisecond})
	}
	g.AddNode(topology.Node{ID: "10.0.0.1", Kind: topology.SwitchNode, Addr: "10.0.0.1"})
	for w := 0; w < 4; w++ {
		gw, agg := fmt.Sprintf("gw%d", w), fmt.Sprintf("10.0.%d.2", w+1)
		g.AddNode(topology.Node{ID: gw, Kind: topology.RouterNode, Addr: fmt.Sprintf("10.0.%d.1", w+1)})
		g.AddNode(topology.Node{ID: agg, Kind: topology.SwitchNode, Addr: agg})
		link(gw, "10.0.0.1", 1e9)
		link(agg, gw, 1e9)
		for e := 0; e < 4; e++ {
			edge := fmt.Sprintf("10.0.%d.%d", w+1, 10+e)
			g.AddNode(topology.Node{ID: edge, Kind: topology.SwitchNode, Addr: edge})
			link(edge, agg, 1e9)
		}
		for h := 0; h < 8; h++ {
			host := fmt.Sprintf("10.%d.0.%d", w+1, 2+h)
			g.AddNode(topology.Node{ID: host, Kind: topology.HostNode, Addr: host})
			link(host, fmt.Sprintf("10.0.%d.%d", w+1, 10+h%4), 100e6)
		}
	}
	return g
}

// TestServeQueryAllocationBudget pins one server-side ASCII QUERY exchange
// answered with a cold campus reply's graph — decode off a pooled reader,
// admission, the core's verb, encode into the pooled reply buffer. The
// graph's text is appended straight into that buffer; when EncodeText
// built it in a buffer of its own for writeResult to copy, the exchange
// allocated 6 times and ~8.4 KB.
func TestServeQueryAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	ctrl := admission.New(admission.Config{})
	defer ctrl.Close()
	srv := &TCPServer{}
	srv.core = newCore("ascii", staticCollector{&collector.Result{Graph: campusReply()}}, nil, nil, ctrl, nil, nil)
	c := &asciiConn{srv: srv, r: bufio.NewReaderSize(nil, 4096), w: lockedWriter{w: io.Discard}}
	c.ten, c.tier, _ = srv.core.identify("", "", "")
	wire := wireQuery(t, 32)
	src := bytes.NewReader(nil)
	exchange := func() {
		src.Reset(wire)
		c.r.Reset(src)
		line, err := lines.Read(c.r, &c.scratch)
		if err != nil {
			t.Fatal(err)
		}
		if keep, err := c.query(line); !keep || err != nil {
			t.Fatalf("QUERY exchange failed: keep=%t err=%v", keep, err)
		}
	}
	exchange() // the pooled reply buffer grows to the reply once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := testing.AllocsPerRun(200, exchange)
	runtime.ReadMemStats(&after)
	size := float64(after.TotalAlloc-before.TotalAlloc) / 201
	t.Logf("one QUERY exchange: %.0f allocations, %.0f bytes", n, size)
	if n > queryExchangeAllocs || size > queryExchangeBytes {
		t.Fatalf("one QUERY exchange allocates %.0f times and %.0f bytes, want <= %d and %d",
			n, size, queryExchangeAllocs, queryExchangeBytes)
	}
}

// TestReadResultAllocationBudget pins the client's half of a cold QUERY:
// readResult of a 57-node campus reply off a pooled reader. The graph is
// decoded off that reader in place, its IDs and addresses cut from one
// string and none of its tables made; through an io.Reader adapter, a
// line scanner and a per-node AddNode it cost 80 allocations.
func TestReadResultAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	var wire bytes.Buffer
	if err := writeResult(&wire, &collector.Result{Graph: campusReply()}); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReaderSize(nil, 4096)
	src := bytes.NewReader(nil)
	var scratch []byte
	var res *collector.Result
	n := testing.AllocsPerRun(200, func() {
		src.Reset(wire.Bytes())
		r.Reset(src)
		var err error
		if res, err = readResult(r, &scratch); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("readResult of a cold reply: %.0f allocations", n)
	if got := len(res.Graph.Nodes()); got != 57 {
		t.Fatalf("the cold reply decoded to %d nodes, want 57", got)
	}
	if n > readResultAllocs {
		t.Fatalf("readResult of a 57-node cold reply allocates %.0f times, want <= %d", n, readResultAllocs)
	}
}

// readResultAllocs is readResult's budget for a cold reply, what it
// measures now that the graph builds its tables when first read and
// decodes with pooled scratch; it read 20 when the graph was decoded with
// its three tables and its own line scratch. Budgets only get tighter.
const readResultAllocs = 6

// The QUERY exchange's budget: what was measured with the graph appended
// into the pooled buffer and its nodes sorted in pooled scratch (4
// allocations, 968 bytes), the bytes 5 % over. With the sorted node list
// made per reply, it read 5 allocations and ~1.5 KB. Budgets only get
// tighter.
const (
	queryExchangeAllocs = 4
	queryExchangeBytes  = 1020
)

// TestHTTPFlowsAllocationBudget pins the XML side of the same exchange,
// so what the hand-written codec bought cannot erode silently: one
// handleFlows call for two flows through a recorder — admission, pooled
// body read, scanner, the core's verb, encoder — and one codec-only
// round of the four documents with warm pools. Through encoding/xml
// the same handler call cost 101 allocations (the recorder's own
// included either way) and the same four documents 193.
func TestHTTPFlowsAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	ctrl := admission.New(admission.Config{})
	defer ctrl.Close()
	a, b := netip.MustParseAddr("10.0.1.1"), netip.MustParseAddr("10.0.2.1")
	flows := []modeler.Flow{{Src: a, Dst: b}, {Src: b, Dst: a, Demand: 3e6}}
	answer := []modeler.FlowInfo{
		{Flow: flows[0], Available: 6e6, Latency: 14 * time.Millisecond, Path: []string{"10.0.1.1", "r1", "10.0.2.1"}},
		{Flow: flows[1], Available: 7e6, Latency: 14 * time.Millisecond, Path: []string{"10.0.2.1", "r1", "10.0.1.1"}},
	}
	srv := &HTTPServer{}
	srv.core = newCore("xml", nil, staticFlows{answer}, nil, ctrl, nil, nil)
	wire := []byte(`<flows><flow src="10.0.1.1" dst="10.0.2.1"></flow><flow src="10.0.2.1" dst="10.0.1.1" demand="3e+06"></flow></flows>`)
	body := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPost, "/flows", body)
	req.ContentLength = int64(len(wire))
	if n := testing.AllocsPerRun(200, func() {
		body.Reset(wire)
		rec := httptest.NewRecorder()
		if err := srv.handleFlows(rec, req); err != nil || rec.Body.Len() == 0 {
			t.Fatalf("handleFlows: %v, %d bytes", err, rec.Body.Len())
		}
	}); n > 12 {
		t.Fatalf("one handleFlows call allocates %.0f times, want <= 12", n)
	}

	// The codec alone allocates what it returns: the two result slices
	// (grown once each here) and, per answered flow, its path's text and
	// slice.
	if n := testing.AllocsPerRun(200, func() {
		buf := respPool.Get().(*bytes.Buffer)
		defer respPool.Put(buf)
		buf.Reset()
		encodeFlowsQuery(buf, flows)
		if got, ok := scanFlowsQuery(buf.Bytes()); !ok || len(got) != 2 {
			t.Fatalf("scanFlowsQuery(%q) = %v, %t", buf.Bytes(), got, ok)
		}
		buf.Reset()
		encodeFlowsResult(buf, answer)
		if got, ok := scanFlowsResult(buf.Bytes()); !ok || len(got) != 2 || len(got[1].Path) != 3 {
			t.Fatalf("scanFlowsResult(%q) = %v, %t", buf.Bytes(), got, ok)
		}
	}); n > 8 {
		t.Fatalf("one codec round allocates %.0f times, want <= 8", n)
	}
}

// sampleResult builds a history- and prediction-bearing result of the
// shape a warm modeler query returns: a small graph plus per-pair series.
func sampleResult(t testing.TB) *collector.Result {
	t.Helper()
	ec := &echoCollector{}
	q := collector.Query{Hosts: hostList("10.0.1.1", "10.0.2.2", "10.0.3.3"), WithHistory: true}
	res, err := ec.Collect(q)
	if err != nil {
		t.Fatal(err)
	}
	fc := collector.Forecast{Values: make([]float64, 16), ErrVar: make([]float64, 16)}
	for i := range fc.Values {
		fc.Values[i] = 1e6 + float64(i)*1e3
		fc.ErrVar[i] = 0.5 + float64(i)
	}
	res.Predictions = map[collector.HistKey]collector.Forecast{
		{From: "10.0.1.1", To: "10.0.2.2"}: fc,
	}
	return res
}

// BenchmarkASCIIQueryParse measures the serve-side query parse in
// isolation — the per-request floor of the ASCII protocol.
func BenchmarkASCIIQueryParse(b *testing.B) {
	wire := wireQuery(b, 4)
	r := bufio.NewReaderSize(nil, 4096)
	src := bytes.NewReader(nil)
	var scratch []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(wire)
		r.Reset(src)
		if _, err := readQuery(r, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkASCIIResultRoundTrip encodes and decodes a history-bearing
// result, the dominant payload on the modeler path.
func BenchmarkASCIIResultRoundTrip(b *testing.B) {
	res := sampleResult(b)
	var enc bytes.Buffer
	if err := writeResult(&enc, res); err != nil {
		b.Fatal(err)
	}
	wire := enc.Bytes()
	b.Run("Encode", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := writeResult(&buf, res); err != nil {
				b.Fatal(err)
			}
		}
	})
	decode := func(wire []byte) func(b *testing.B) {
		return func(b *testing.B) {
			r := bufio.NewReaderSize(nil, 4096)
			src := bytes.NewReader(nil)
			var scratch []byte
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Reset(wire)
				r.Reset(src)
				if _, err := readResult(r, &scratch); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("Decode", decode(wire))
	// A cold campus reply's graph, read off the reader as the client reads
	// it from its connection.
	var cold bytes.Buffer
	if err := writeResult(&cold, &collector.Result{Graph: campusReply()}); err != nil {
		b.Fatal(err)
	}
	b.Run("ColdGraph", decode(cold.Bytes()))
}
