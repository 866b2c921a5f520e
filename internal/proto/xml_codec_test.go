package proto

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"remos/internal/collector"
	"remos/internal/modeler"
	"remos/internal/rerr"
)

// The reference the hand-written encoders are held to: xml.Marshal over
// the xml* structs, filled the way the handlers filled them.

func marshalFlowsQuery(t testing.TB, flows []modeler.Flow) []byte {
	t.Helper()
	xq := xmlFlowsQuery{Flows: make([]xmlFlowReq, len(flows))}
	for i, f := range flows {
		xq.Flows[i] = xmlFlowReq{Src: f.Src.String(), Dst: f.Dst.String(), Demand: f.Demand}
	}
	out, err := xml.Marshal(xq)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func marshalFlowsResult(t testing.TB, infos []modeler.FlowInfo) []byte {
	t.Helper()
	xr := xmlFlowsResult{Flows: make([]xmlFlowInfo, len(infos))}
	for i, fi := range infos {
		xr.Flows[i] = xmlFlowInfo{
			Src: fi.Flow.Src.String(), Dst: fi.Flow.Dst.String(),
			Avail: fi.Available, LatencyNs: fi.Latency.Nanoseconds(),
			JitterNs: fi.Jitter.Nanoseconds(), Path: strings.Join(fi.Path, " "),
		}
	}
	out, err := xml.Marshal(xr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func encoded(encode func(*bytes.Buffer)) []byte {
	var buf bytes.Buffer
	encode(&buf)
	return buf.Bytes()
}

// sameFloat is equality on what the wire carries: -0 is not 0, and a
// NaN is a NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameFlow(a, b modeler.Flow) bool {
	return a.Src == b.Src && a.Dst == b.Dst && sameFloat(a.Demand, b.Demand)
}

func sameFlowInfo(a, b modeler.FlowInfo) bool {
	return sameFlow(a.Flow, b.Flow) && sameFloat(a.Available, b.Available) &&
		a.Latency == b.Latency && a.Jitter == b.Jitter &&
		(a.Path == nil) == (b.Path == nil) && slices.Equal(a.Path, b.Path) &&
		sameFloat(a.Predicted, b.Predicted) && sameFloat(a.ErrVar, b.ErrVar)
}

func sameQuery(a, b collector.Query) bool {
	return slices.Equal(a.Hosts, b.Hosts) && a.WithHistory == b.WithHistory && a.WithPredictions == b.WithPredictions
}

// nasty is what the random values draw their text from: every byte the
// marshaller escapes, bytes it replaces (invalid UTF-8, control bytes,
// U+FFFE), and multi-byte runes it passes.
var nasty = []string{"\"", "'", "&", "<", ">", "\t", "\n", "\r", " ", "\xff", "\xc3", "\xe2\x82", "\x00", "\x7f",
	"￾", "�", "é", "網", "r1", "sw-0", "10.0.1.1", "&amp;", "]]>"}

func randText(rnd *rand.Rand) string {
	var b strings.Builder
	for n := rnd.Intn(4); n >= 0; n-- {
		b.WriteString(nasty[rnd.Intn(len(nasty))])
	}
	return b.String()
}

func randAddr(rnd *rand.Rand) netip.Addr {
	var b16 [16]byte
	rnd.Read(b16[:])
	switch rnd.Intn(6) {
	case 0:
		return netip.Addr{}
	case 1:
		return netip.AddrFrom16(b16)
	case 2:
		return netip.AddrFrom16(b16).WithZone(randText(rnd))
	case 3:
		return netip.AddrFrom16(netip.AddrFrom4([4]byte(b16[:4])).As16()) // 4-in-6
	default:
		return netip.AddrFrom4([4]byte(b16[:4]))
	}
}

func randFloat(rnd *rand.Rand) float64 {
	edge := []float64{0, math.Copysign(0, -1), math.NaN(), 1e300, math.Inf(1), math.Inf(-1), 3e6, 5e-324, -1}
	if i := rnd.Intn(2 * len(edge)); i < len(edge) {
		return edge[i]
	}
	return math.Float64frombits(rnd.Uint64())
}

// TestXMLEncodersMatchMarshal holds the hand-written encoders to
// xml.Marshal byte for byte: a table of the shapes that have a reason to
// differ, then seeded random values.
func TestXMLEncodersMatchMarshal(t *testing.T) {
	a4, a6 := netip.MustParseAddr("10.0.1.1"), netip.MustParseAddr("2001:db8::1")
	zoned := netip.MustParseAddr("fe80::1%eth0")
	flowTable := [][]modeler.Flow{
		nil,
		{},
		{{Src: a4, Dst: a6}},
		{{Src: zoned, Dst: netip.MustParseAddr("::ffff:10.0.0.1"), Demand: 3e6}, {Src: a6.WithZone(`"<&'>`), Dst: netip.Addr{}}},
		{{Src: a4, Dst: a4, Demand: math.Copysign(0, -1)}, {Src: a4, Dst: a4, Demand: math.NaN()},
			{Src: a4, Dst: a4, Demand: 1e300}, {Src: a4, Dst: a4, Demand: math.Inf(-1)}},
	}
	infoTable := [][]modeler.FlowInfo{
		nil,
		{{}},
		{{Flow: modeler.Flow{Src: a4, Dst: a6}, Available: 6e6, Latency: 14 * time.Millisecond, Jitter: -time.Nanosecond,
			Path: []string{"10.0.1.1", "r1", "2001:db8::1"}}},
		{{Flow: modeler.Flow{Src: zoned, Dst: a4}, Available: math.NaN(), Latency: math.MinInt64, Jitter: math.MaxInt64,
			Path: []string{`a"b`, "c'd", "e&f", "<g>", "h\ti", "j\nk", "l\rm", "n\xffo", "p\xc3", "", " ", "é"}}},
		{{Path: []string{}}, {Path: []string{""}}, {Path: []string{"", ""}}},
	}
	rnd := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		flows := make([]modeler.Flow, rnd.Intn(4))
		for j := range flows {
			flows[j] = modeler.Flow{Src: randAddr(rnd), Dst: randAddr(rnd), Demand: randFloat(rnd)}
		}
		flowTable = append(flowTable, flows)
		infos := make([]modeler.FlowInfo, rnd.Intn(4))
		for j := range infos {
			infos[j] = modeler.FlowInfo{
				Flow:      modeler.Flow{Src: randAddr(rnd), Dst: randAddr(rnd)},
				Available: randFloat(rnd), Latency: time.Duration(rnd.Uint64()), Jitter: time.Duration(rnd.Int63n(1e9)),
			}
			for n := rnd.Intn(5); n > 0; n-- {
				infos[j].Path = append(infos[j].Path, randText(rnd))
			}
		}
		infoTable = append(infoTable, infos)
	}
	for _, flows := range flowTable {
		got, want := encoded(func(b *bytes.Buffer) { encodeFlowsQuery(b, flows) }), marshalFlowsQuery(t, flows)
		if !bytes.Equal(got, want) {
			t.Fatalf("encodeFlowsQuery(%v)\n got: %q\nwant: %q", flows, got, want)
		}
		// What the encoder wrote decodes, by the scanner or behind it, to
		// what encodes the same again (the zero Addr has no wire form).
		if back, err := decodeFlowsQuery(got); err == nil {
			if again := encoded(func(b *bytes.Buffer) { encodeFlowsQuery(b, back) }); !bytes.Equal(again, got) {
				t.Fatalf("decodeFlowsQuery(%q) = %v, which encodes as %q", got, back, again)
			}
		}
	}
	for _, infos := range infoTable {
		got, want := encoded(func(b *bytes.Buffer) { encodeFlowsResult(b, infos) }), marshalFlowsResult(t, infos)
		if !bytes.Equal(got, want) {
			t.Fatalf("encodeFlowsResult(%v)\n got: %q\nwant: %q", infos, got, want)
		}
		if back, err := decodeFlowsResult(got); err == nil {
			if again := encoded(func(b *bytes.Buffer) { encodeFlowsResult(b, back) }); !bytes.Equal(again, got) {
				t.Fatalf("decodeFlowsResult(%q) = %v, which encodes as %q", got, back, again)
			}
		}
	}
}

// checkScanFlowsQuery, checkScanFlowsResult and checkScanQuery are the
// differential property of the scanners, shared by the table below and
// the fuzz targets: whenever a scanner accepts a document, encoding/xml
// accepts it too and decodes the same value.

func checkScanFlowsQuery(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	got, ok := scanFlowsQuery(body)
	if !ok {
		return false
	}
	want, err := unmarshalFlowsQuery(body)
	if err != nil || !slices.EqualFunc(got, want, sameFlow) {
		t.Fatalf("scanFlowsQuery(%q) = %v; encoding/xml: %v, %v", body, got, want, err)
	}
	return true
}

func checkScanFlowsResult(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	got, ok := scanFlowsResult(body)
	if !ok {
		return false
	}
	want, err := unmarshalFlowsResult(body)
	if err != nil || !slices.EqualFunc(got, want, sameFlowInfo) {
		t.Fatalf("scanFlowsResult(%q) = %v; encoding/xml: %v, %v", body, got, want, err)
	}
	return true
}

func checkScanQuery(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	got, ok := scanQuery(body)
	if !ok {
		return false
	}
	want, err := unmarshalQuery(body)
	if err != nil || !sameQuery(got, want) {
		t.Fatalf("scanQuery(%q) = %+v; encoding/xml: %+v, %v", body, got, want, err)
	}
	return true
}

// TestXMLScannerCanonicalForm pins which documents the scanners take
// themselves and which they leave to encoding/xml, and that on the ones
// they take they agree with it.
func TestXMLScannerCanonicalForm(t *testing.T) {
	for _, tc := range []struct {
		check  func(*testing.T, []byte) bool
		doc    string
		accept bool
	}{
		{checkScanFlowsQuery, xmlOneFlow, true},
		{checkScanFlowsQuery, `<flows><flow src="10.0.2.1" dst="fe80::1%eth0" demand="3e+06"/></flows>`, true},
		{checkScanFlowsQuery, " <flows>\n <flow  dst=\"10.0.2.1\"\tsrc=\"::1\" demand=\"NaN\" />\n</flows>\n", true},
		{checkScanFlowsQuery, `<flows></flows>`, true},
		{checkScanFlowsQuery, `<flows/>`, true},
		{checkScanFlowsQuery, `<flows><flow src="10.0.2.1" dst="10.0.1.1" demand=""></flow></flows>`, true},
		{checkScanFlowsQuery, `<flows><flow src="10.0.2.1" dst="10.0.1.1" demand="0x1p-2"></flow></flows>`, true},
		// Everything below is encoding/xml's: accepted or not, it decides.
		{checkScanFlowsQuery, `<flows><flow src='10.0.2.1' dst="10.0.1.1"></flow></flows>`, false},
		{checkScanFlowsQuery, `<flows><flow src="10.0.2.1" dst="10.0.1.1" src="10.0.3.1"></flow></flows>`, false},
		{checkScanFlowsQuery, `<flows><flow src="10.0.2.1" dst="10.0.1.1" extra="1"></flow></flows>`, false},
		{checkScanFlowsQuery, `<flows><flow src="10.0.2.1" dst="10.0.1.1" demand=" 1"></flow></flows>`, false},
		{checkScanFlowsQuery, `<flows><flow src="10.0.2.1" dst="10.0.1.1" demand="1e999"></flow></flows>`, false},
		{checkScanFlowsQuery, `<flows><flow src="&#49;0.0.2.1" dst="10.0.1.1"></flow></flows>`, false},
		{checkScanFlowsQuery, `<flows><flow src="nowhere" dst="10.0.1.1"></flow></flows>`, false},
		{checkScanFlowsQuery, `<flows><flow dst="10.0.1.1"></flow></flows>`, false},
		{checkScanFlowsQuery, `<flows><flow src="10.0.2.1" dst="10.0.1.1">x</flow></flows>`, false},
		{checkScanFlowsQuery, `<flows><flow src="10.0.2.1" dst="10.0.1.1"></flow><!-- c --></flows>`, false},
		{checkScanFlowsQuery, `<flows><flow src="10.0.2.1"dst="10.0.1.1"></flow></flows>`, false},
		{checkScanFlowsQuery, `<flows><flows src="10.0.2.1" dst="10.0.1.1"></flows></flows>`, false},
		{checkScanFlowsQuery, `<?xml version="1.0"?>` + xmlOneFlow, false},
		{checkScanFlowsQuery, xmlOneFlow + "trailing", false},
		{checkScanFlowsQuery, `<flows xmlns="urn:x"></flows>`, false},
		{checkScanFlowsQuery, `<flowresult></flowresult>`, false},
		{checkScanFlowsQuery, `<flows><flow src="10.0.2.1" dst="10.0.1.1"></flow>`, false},
		{checkScanFlowsQuery, "", false},

		{checkScanFlowsResult, `<flowresult><flow src="10.0.1.1" dst="10.0.2.1" avail="6e+06" latns="14000000" jitns="-2" path="10.0.1.1 r1 10.0.2.1"></flow></flowresult>`, true},
		{checkScanFlowsResult, `<flowresult><flow src="10.0.1.1" dst="10.0.2.1" avail="" path="a  b "/></flowresult>`, true},
		{checkScanFlowsResult, `<flowresult><flow src="10.0.1.1" dst="10.0.2.1" latns="+5" path=""></flow></flowresult>`, false},
		{checkScanFlowsResult, `<flowresult><flow src="10.0.1.1" dst="10.0.2.1" latns="-9223372036854775808"></flow></flowresult>`, false},
		{checkScanFlowsResult, `<flowresult><flow src="10.0.1.1" dst="10.0.2.1" path="a&amp;b"></flow></flowresult>`, false},
		{checkScanFlowsResult, "<flowresult><flow src=\"10.0.1.1\" dst=\"10.0.2.1\" path=\"a\r\nb\"></flow></flowresult>", false},
		{checkScanFlowsResult, `<flowresult><flow src="invalid IP" dst="10.0.2.1"></flow></flowresult>`, false},

		{checkScanQuery, "<query>" + xmlTwoHosts, true},
		{checkScanQuery, `<query history="true" predictions="false">` + xmlTwoHosts, true},
		{checkScanQuery, `<query/>`, true},
		{checkScanQuery, `<query predictions="true"> <host>::1</host> </query>`, true},
		{checkScanQuery, `<query history="1">` + xmlTwoHosts, false},
		{checkScanQuery, `<query history="">` + xmlTwoHosts, false},
		{checkScanQuery, `<query><host> 10.0.0.1</host></query>`, false},
		{checkScanQuery, `<query><host/></query>`, false},
		{checkScanQuery, `<query><host>10.0.0.1<!-- c --></host></query>`, false},
		{checkScanQuery, `<query><host>10.0.0.1</host><other/></query>`, false},
		{checkScanQuery, `<query><host>not-an-address</host></query>`, false},
	} {
		if got := tc.check(t, []byte(tc.doc)); got != tc.accept {
			t.Errorf("scanner accepted=%t, want %t: %q", got, tc.accept, tc.doc)
		}
	}
}

// TestHTTPFlowsReplyBadAddress: an answer whose address does not parse
// is a decode error on the client, as a malformed answer line is on the
// ASCII client, and not a flow silently re-addressed to the zero Addr.
func TestHTTPFlowsReplyBadAddress(t *testing.T) {
	for _, doc := range []string{
		`<flowresult><flow src="nowhere" dst="10.0.2.1" avail="1"></flow></flowresult>`,
		`<flowresult><flow src="10.0.1.1" dst="10.0.2.300" avail="1"/></flowresult>`,
		`<flowresult><flow dst="10.0.2.1" avail="1"></flow></flowresult>`,
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(doc))
		}))
		cl := &HTTPClient{BaseURL: srv.URL}
		infos, err := cl.Flows(context.Background(), []modeler.Flow{{Src: netip.MustParseAddr("10.0.1.1"), Dst: netip.MustParseAddr("10.0.2.1")}})
		srv.Close()
		if err == nil || !strings.HasPrefix(err.Error(), "proto: bad flow answer ") {
			t.Errorf("Flows on %q = %v, %v; want a proto: decode error", doc, infos, err)
		}
	}
}

// TestHTTPClientTemplatesFollowFields: the request templates are built
// once per client, and again when a field they were built from changes.
func TestHTTPClientTemplatesFollowFields(t *testing.T) {
	var tenants []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tenants = append(tenants, r.Header.Get(tenantHeader)+"@"+r.URL.Path+" "+r.Header.Get("Content-Type"))
		w.Write([]byte("<flowresult></flowresult>"))
	}))
	defer srv.Close()
	cl := &HTTPClient{BaseURL: srv.URL, Tenant: "a"}
	first, err := cl.templates()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := cl.templates(); again != first {
		t.Fatal("templates rebuilt with no field changed")
	}
	for _, tenant := range []string{"a", "b"} {
		cl.Tenant = tenant
		if _, err := cl.Flows(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
	}
	if want := []string{"a@/flows application/xml", "b@/flows application/xml"}; !slices.Equal(tenants, want) {
		t.Fatalf("server saw %q, want %q", tenants, want)
	}
	cl.BaseURL = "http://[::1" // no longer parses
	if _, err := cl.Flows(context.Background(), nil); err == nil {
		t.Fatal("Flows succeeded on an unparsable BaseURL")
	}
}

// TestHTTPClientConcurrentFlows: one client's templates, the default
// http.Client and the pooled bodies are shared by every exchange; each
// goroutine must still get the answer to its own question.
func TestHTTPClientConcurrentFlows(t *testing.T) {
	srv := &HTTPServer{Flows: &fakeFlows{}}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := &HTTPClient{BaseURL: "http://" + addr, Tenant: "t"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ask := make([]modeler.Flow, 1+i%3)
				for j := range ask {
					ask[j] = modeler.Flow{Src: netip.AddrFrom4([4]byte{10, byte(g), byte(i), byte(j)}), Dst: netip.AddrFrom4([4]byte{10, 9, byte(g), byte(i)})}
				}
				infos, err := cl.Flows(context.Background(), ask)
				if err != nil || len(infos) != len(ask) {
					t.Errorf("Flows = %v, %v", infos, err)
					return
				}
				for j, fi := range infos {
					if fi.Flow != ask[j] || len(fi.Path) != 3 || fi.Path[0] != ask[j].Src.String() {
						t.Errorf("answer %d is %+v, asked %v", j, fi, ask[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestHTTPDefaultDeadlineIsTimeout: against a server that never answers,
// a deadline the caller did not set — the stand-in here for the default
// client's 10 s — surfaces as the TIMEOUT class, as it did when
// http.Client.Timeout enforced it; the caller's own deadline comes back
// bare, as on the ASCII client.
func TestHTTPDefaultDeadlineIsTimeout(t *testing.T) {
	// The kernel completes the handshake; nobody ever accepts or answers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cl := &HTTPClient{BaseURL: "http://" + ln.Addr().String()}
	tmpl, err := cl.templates()
	if err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	_, err = cl.exchange(context.Background(), defaultHTTPClient, tmpl.flows.WithContext(short))
	if !errors.Is(err, rerr.ErrTimeout) || !strings.HasPrefix(err.Error(), "proto: ") {
		t.Fatalf("deadline the caller did not set: err = %v, want the TIMEOUT class", err)
	}

	_, err = cl.Flows(short, nil)
	if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, rerr.ErrTimeout) {
		t.Fatalf("caller's own deadline: err = %v, want bare context.DeadlineExceeded", err)
	}
}

// TestReadBody: the pooled body read is io.ReadAll over a LimitReader,
// whatever way the reader delivers its end and whatever the hint says.
func TestReadBody(t *testing.T) {
	long := strings.Repeat("0123456789abcdef", 200)
	boom := errors.New("boom")
	var buf bytes.Buffer
	for _, tc := range []struct {
		name  string
		r     io.Reader
		hint  int64
		limit int64
		want  string
		err   error
	}{
		{"plain", strings.NewReader(long), int64(len(long)), 1 << 20, long, nil},
		{"no hint", strings.NewReader(long), -1, 1 << 20, long, nil},
		{"hint short", strings.NewReader(long), 7, 1 << 20, long, nil},
		{"hint long", strings.NewReader("abc"), 1 << 40, 1 << 10, "abc", nil},
		{"byte at a time", iotest.OneByteReader(strings.NewReader(long)), 0, 1 << 20, long, nil},
		{"end with the data", iotest.DataErrReader(strings.NewReader(long)), 0, 1 << 20, long, nil},
		{"cut at the limit", strings.NewReader(long), int64(len(long)), 1000, long[:1000], nil},
		{"empty", strings.NewReader(""), 0, 1 << 20, "", nil},
		{"failing", io.MultiReader(strings.NewReader("abc"), iotest.ErrReader(boom)), 0, 1 << 20, "abc", boom},
	} {
		buf.WriteString("left over")
		err := readBody(&buf, tc.r, tc.hint, tc.limit)
		if err != tc.err || buf.String() != tc.want {
			t.Errorf("%s: read %d bytes, err %v; want %d bytes, err %v", tc.name, buf.Len(), err, len(tc.want), tc.err)
		}
	}
}
