package snmp

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestOIDParseAndString(t *testing.T) {
	for _, s := range []string{"1.3.6.1.2.1.2.2.1.10.3", "0.0", "2.100.3"} {
		o, err := ParseOID(s)
		if err != nil {
			t.Fatalf("ParseOID(%q): %v", s, err)
		}
		if o.String() != s {
			t.Fatalf("round trip %q -> %q", s, o.String())
		}
	}
	if _, err := ParseOID(""); err == nil {
		t.Fatal("empty OID parsed")
	}
	if _, err := ParseOID("1.x.3"); err == nil {
		t.Fatal("garbage OID parsed")
	}
	if o := MustParseOID(".1.3.6"); o.String() != "1.3.6" {
		t.Fatalf("leading dot mishandled: %v", o)
	}
}

func TestOIDCmp(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1.3.6", "1.3.6", 0},
		{"1.3.5", "1.3.6", -1},
		{"1.3.6", "1.3.6.1", -1},
		{"1.3.6.1", "1.3.6", 1},
		{"1.4", "1.3.6.1", 1},
	}
	for _, c := range cases {
		got := MustParseOID(c.a).Cmp(MustParseOID(c.b))
		if got != c.want {
			t.Errorf("Cmp(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestOIDHasPrefixAndAppend(t *testing.T) {
	base := MustParseOID("1.3.6.1")
	child := base.Append(2, 1)
	if child.String() != "1.3.6.1.2.1" {
		t.Fatalf("Append: %v", child)
	}
	if !child.HasPrefix(base) {
		t.Fatal("child lacks base prefix")
	}
	if base.HasPrefix(child) {
		t.Fatal("base has child prefix")
	}
	// Append must not alias the receiver.
	a := base.Append(9)
	b := base.Append(8)
	if a[len(a)-1] != 9 || b[len(b)-1] != 8 {
		t.Fatal("Append aliases the receiver's backing array")
	}
}

func roundTripMessage(t *testing.T, m *Message) *Message {
	t.Helper()
	b, err := m.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return got
}

func TestMessageRoundTripAllKinds(t *testing.T) {
	m := &Message{
		Community: "public",
		PDU: PDU{
			Type:      GetResponse,
			RequestID: 12345,
			VarBinds: []VarBind{
				{Name: MustParseOID("1.3.6.1.2.1.1.1.0"), Value: Str("FreeBSD router")},
				{Name: MustParseOID("1.3.6.1.2.1.1.3.0"), Value: Ticks(4242)},
				{Name: MustParseOID("1.3.6.1.2.1.2.2.1.10.3"), Value: Counter(3_999_999_999)},
				{Name: MustParseOID("1.3.6.1.2.1.2.2.1.5.3"), Value: Gauge(100_000_000)},
				{Name: MustParseOID("1.3.6.1.2.1.4.21.1.7.10"), Value: IPv4([4]byte{10, 0, 1, 1})},
				{Name: MustParseOID("1.3.6.1.2.1.1.2.0"), Value: OIDValue(MustParseOID("1.3.6.1.4.1.9"))},
				{Name: MustParseOID("1.3.6.1.9.9.9"), Value: Int64(-300)},
				{Name: MustParseOID("1.3.6.1.9.9.10"), Value: Null},
				{Name: MustParseOID("1.3.6.1.9.9.11"), Value: Value{Kind: KindCounter64, Int: 1 << 40}},
			},
		},
	}
	got := roundTripMessage(t, m)
	if got.Community != "public" || got.PDU.RequestID != 12345 || got.PDU.Type != GetResponse {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.PDU.VarBinds) != len(m.PDU.VarBinds) {
		t.Fatalf("varbind count %d, want %d", len(got.PDU.VarBinds), len(m.PDU.VarBinds))
	}
	for i, vb := range got.PDU.VarBinds {
		want := m.PDU.VarBinds[i]
		if vb.Name.Cmp(want.Name) != 0 {
			t.Errorf("vb %d name %v, want %v", i, vb.Name, want.Name)
		}
		if vb.Value.Kind != want.Value.Kind || vb.Value.Int != want.Value.Int ||
			!bytes.Equal(vb.Value.Bytes, want.Value.Bytes) || vb.Value.Oid.Cmp(want.Value.Oid) != 0 {
			t.Errorf("vb %d value %v, want %v", i, vb.Value, want.Value)
		}
	}
}

func TestMessageRoundTripExceptions(t *testing.T) {
	m := &Message{Community: "c", PDU: PDU{Type: GetResponse, RequestID: 1, VarBinds: []VarBind{
		{Name: MustParseOID("1.3.1"), Value: NoSuchObject},
		{Name: MustParseOID("1.3.2"), Value: Value{Kind: KindNoSuchInstance}},
		{Name: MustParseOID("1.3.3"), Value: EndOfMibView},
	}}}
	got := roundTripMessage(t, m)
	kinds := []Kind{KindNoSuchObject, KindNoSuchInstance, KindEndOfMibView}
	for i, k := range kinds {
		if got.PDU.VarBinds[i].Value.Kind != k {
			t.Errorf("vb %d kind %v, want %v", i, got.PDU.VarBinds[i].Value.Kind, k)
		}
	}
}

func TestGetBulkHeaderFieldsSurvive(t *testing.T) {
	m := &Message{Community: "c", PDU: PDU{
		Type: GetBulkRequest, RequestID: 7, ErrorStatus: 2, ErrorIndex: 20,
		VarBinds: []VarBind{{Name: MustParseOID("1.3"), Value: Null}},
	}}
	got := roundTripMessage(t, m)
	if got.PDU.ErrorStatus != 2 || got.PDU.ErrorIndex != 20 {
		t.Fatalf("non-repeaters/max-repetitions lost: %+v", got.PDU)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x30},
		{0x02, 0x01, 0x01},
		{0x30, 0x82, 0xff, 0xff, 0x00},
		bytes.Repeat([]byte{0xff}, 64),
	}
	for i, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("case %d: garbage unmarshalled", i)
		}
	}
}

func TestUnmarshalFuzzNoPanic(t *testing.T) {
	// Random mutations of a valid message must never panic.
	m := &Message{Community: "public", PDU: PDU{Type: GetRequest, RequestID: 9,
		VarBinds: []VarBind{{Name: MustParseOID("1.3.6.1.2.1.1.1.0"), Value: Null}}}}
	valid, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		b := append([]byte(nil), valid...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			b[rng.Intn(len(b))] = byte(rng.Intn(256))
		}
		Unmarshal(b) // must not panic; errors are fine
	}
}

func TestPropertyOIDEncodingRoundTrip(t *testing.T) {
	f := func(raw []uint16, big uint32) bool {
		o := OID{1, 3}
		for _, v := range raw {
			o = append(o, uint32(v))
		}
		o = append(o, big) // exercise multi-byte base-128
		if err := checkOID(o); err != nil {
			return false
		}
		body := appendOIDBody(nil, o)
		back, err := appendOIDSubs(nil, body)
		if err != nil {
			return false
		}
		return OID(back).Cmp(o) == 0 && countOIDBody(body) == len(o)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyIntegerRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		body := appendIntBody(nil, v)
		got, err := parseIntBody(body)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUnsignedRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		body := appendUintBody(nil, v)
		got, err := parseUintBody(body)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func testView(t *testing.T) MIBView {
	t.Helper()
	v, err := NewStaticView(map[string]Value{
		"1.3.6.1.2.1.1.1.0":       Str("test device"),
		"1.3.6.1.2.1.1.5.0":       Str("dev1"),
		"1.3.6.1.2.1.2.2.1.10.1":  Counter(100),
		"1.3.6.1.2.1.2.2.1.10.2":  Counter(200),
		"1.3.6.1.2.1.2.2.1.10.10": Counter(1000),
		"1.3.6.1.2.1.2.2.1.16.1":  Counter(111),
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// handle is one request through the agent's datagram path, its answer
// decoded; nil when the agent drops it.
func handle(t testing.TB, a *Agent, req *Message) *Message {
	t.Helper()
	wire, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b := a.HandleBytes(wire)
	if b == nil {
		return nil
	}
	resp, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("the agent's answer does not decode: %v", err)
	}
	return resp
}

func TestStaticViewOrdering(t *testing.T) {
	v := testView(t).Table()
	// Numeric, not string, ordering: .10.2 < .10.10.
	next, _ := v.At(v.Seek(MustParseOID("1.3.6.1.2.1.2.2.1.10.2")))
	if next.String() != "1.3.6.1.2.1.2.2.1.10.10" {
		t.Fatalf("next(.10.2) = %v, want .10.10", next)
	}
}

func TestAgentGet(t *testing.T) {
	a := &Agent{Community: "public", View: testView(t)}
	resp := handle(t, a, &Message{Community: "public", PDU: PDU{Type: GetRequest, RequestID: 5,
		VarBinds: []VarBind{
			{Name: MustParseOID("1.3.6.1.2.1.1.5.0"), Value: Null},
			{Name: MustParseOID("1.3.6.1.99"), Value: Null},
		}}})
	if resp == nil || resp.PDU.Type != GetResponse || resp.PDU.RequestID != 5 {
		t.Fatalf("bad response %+v", resp)
	}
	if string(resp.PDU.VarBinds[0].Value.Bytes) != "dev1" {
		t.Fatalf("sysName = %v", resp.PDU.VarBinds[0].Value)
	}
	if resp.PDU.VarBinds[1].Value.Kind != KindNoSuchObject {
		t.Fatalf("missing OID returned %v, want noSuchObject", resp.PDU.VarBinds[1].Value)
	}
}

func TestAgentCommunityMismatchDrops(t *testing.T) {
	a := &Agent{Community: "secret", View: testView(t)}
	resp := handle(t, a, &Message{Community: "public", PDU: PDU{Type: GetRequest}})
	if resp != nil {
		t.Fatal("agent answered with wrong community")
	}
}

func TestAgentGetNextAndEnd(t *testing.T) {
	a := &Agent{Community: "public", View: testView(t)}
	resp := handle(t, a, &Message{Community: "public", PDU: PDU{Type: GetNextRequest,
		VarBinds: []VarBind{{Name: MustParseOID("1.3.6.1.2.1.1.1.0"), Value: Null}}}})
	if got := resp.PDU.VarBinds[0].Name.String(); got != "1.3.6.1.2.1.1.5.0" {
		t.Fatalf("GetNext = %s", got)
	}
	resp = handle(t, a, &Message{Community: "public", PDU: PDU{Type: GetNextRequest,
		VarBinds: []VarBind{{Name: MustParseOID("1.3.6.1.2.1.2.2.1.16.1"), Value: Null}}}})
	if resp.PDU.VarBinds[0].Value.Kind != KindEndOfMibView {
		t.Fatalf("walk past end = %v, want endOfMibView", resp.PDU.VarBinds[0].Value)
	}
}

func TestAgentGetBulk(t *testing.T) {
	a := &Agent{Community: "public", View: testView(t)}
	resp := handle(t, a, &Message{Community: "public", PDU: PDU{Type: GetBulkRequest,
		ErrorStatus: 0, ErrorIndex: 4,
		VarBinds: []VarBind{{Name: MustParseOID("1.3.6.1.2.1.2.2.1.10"), Value: Null}}}})
	if len(resp.PDU.VarBinds) != 4 {
		t.Fatalf("GetBulk returned %d varbinds, want 4", len(resp.PDU.VarBinds))
	}
	if resp.PDU.VarBinds[0].Name.String() != "1.3.6.1.2.1.2.2.1.10.1" {
		t.Fatalf("first = %v", resp.PDU.VarBinds[0].Name)
	}
}

func newInProcClient(t *testing.T, community string) (*Client, *Registry) {
	t.Helper()
	reg := NewRegistry()
	tr := &InProc{Registry: reg, Latency: func(string) time.Duration { return 3 * time.Millisecond }}
	return NewClient(tr, community), reg
}

func TestClientGetViaInProc(t *testing.T) {
	c, reg := newInProcClient(t, "public")
	reg.Register("10.0.0.1", &Agent{Community: "public", View: testView(t)})
	v, err := c.GetOne(context.Background(), "10.0.0.1", MustParseOID("1.3.6.1.2.1.1.5.0"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Bytes) != "dev1" {
		t.Fatalf("GetOne = %v", v)
	}
}

func TestClientMeterCountsRequests(t *testing.T) {
	c, reg := newInProcClient(t, "public")
	reg.Register("a", &Agent{Community: "public", View: testView(t)})
	c.Meter = &Meter{}
	for i := 0; i < 5; i++ {
		if _, err := c.Get(context.Background(), "a", MustParseOID("1.3.6.1.2.1.1.1.0")); err != nil {
			t.Fatal(err)
		}
	}
	n, total := c.Meter.Snapshot()
	if n != 5 {
		t.Fatalf("meter requests = %d, want 5", n)
	}
	if total != 15*time.Millisecond {
		t.Fatalf("meter total = %v, want 15ms", total)
	}
}

func TestClientTimeoutOnMissingAgent(t *testing.T) {
	c, _ := newInProcClient(t, "public")
	c.Retries = 2
	c.Meter = &Meter{}
	if _, err := c.Get(context.Background(), "nowhere", MustParseOID("1.3")); err == nil {
		t.Fatal("expected timeout")
	}
	if n, _ := c.Meter.Snapshot(); n != 3 {
		t.Fatalf("retries not metered: %d sends, want 3", n)
	}
}

func TestClientWrongCommunityTimesOut(t *testing.T) {
	c, reg := newInProcClient(t, "guess")
	reg.Register("a", &Agent{Community: "public", View: testView(t)})
	if _, err := c.Get(context.Background(), "a", MustParseOID("1.3")); err == nil {
		t.Fatal("wrong community should look like a timeout")
	}
}

func TestClientWalk(t *testing.T) {
	c, reg := newInProcClient(t, "public")
	reg.Register("a", &Agent{Community: "public", View: testView(t)})
	var got []string
	err := c.Walk(context.Background(), "a", MustParseOID("1.3.6.1.2.1.2.2.1.10"), func(o OID, v Value) bool {
		got = append(got, o.String())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1.3.6.1.2.1.2.2.1.10.1", "1.3.6.1.2.1.2.2.1.10.2", "1.3.6.1.2.1.2.2.1.10.10"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Walk = %v, want %v", got, want)
	}
}

func TestClientWalkEarlyStop(t *testing.T) {
	c, reg := newInProcClient(t, "public")
	reg.Register("a", &Agent{Community: "public", View: testView(t)})
	n := 0
	c.Walk(context.Background(), "a", MustParseOID("1.3.6.1.2.1.2.2.1.10"), func(OID, Value) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("early-stopped walk visited %d", n)
	}
}

func TestClientBulkWalkMatchesWalk(t *testing.T) {
	c, reg := newInProcClient(t, "public")
	reg.Register("a", &Agent{Community: "public", View: testView(t)})
	collect := func(walker func() error, sink *[]string) {
		if err := walker(); err != nil {
			t.Fatal(err)
		}
	}
	var a1, a2 []string
	collect(func() error {
		return c.Walk(context.Background(), "a", MustParseOID("1.3.6.1.2.1"), func(o OID, v Value) bool {
			a1 = append(a1, o.String()+"="+v.String())
			return true
		})
	}, &a1)
	collect(func() error {
		return c.BulkWalk(context.Background(), "a", MustParseOID("1.3.6.1.2.1"), 2, func(o OID, v Value) bool {
			a2 = append(a2, o.String()+"="+v.String())
			return true
		})
	}, &a2)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("BulkWalk %v != Walk %v", a2, a1)
	}
}

func TestBulkWalkFewerRoundTrips(t *testing.T) {
	c, reg := newInProcClient(t, "public")
	reg.Register("a", &Agent{Community: "public", View: testView(t)})
	c.Meter = &Meter{}
	c.Walk(context.Background(), "a", MustParseOID("1.3.6.1.2.1"), func(OID, Value) bool { return true })
	walkN, _ := c.Meter.Snapshot()
	c.Meter.Reset()
	c.BulkWalk(context.Background(), "a", MustParseOID("1.3.6.1.2.1"), 8, func(OID, Value) bool { return true })
	bulkN, _ := c.Meter.Snapshot()
	if bulkN >= walkN {
		t.Fatalf("BulkWalk used %d round trips, Walk used %d", bulkN, walkN)
	}
}

func TestUDPTransportEndToEnd(t *testing.T) {
	srv := &Server{Agent: &Agent{Community: "public", View: testView(t)}}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := NewClient(&UDP{Timeout: time.Second}, "public")
	v, err := c.GetOne(context.Background(), addr, MustParseOID("1.3.6.1.2.1.1.1.0"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Bytes) != "test device" {
		t.Fatalf("over UDP: %v", v)
	}
	var rows int
	if err := c.BulkWalk(context.Background(), addr, MustParseOID("1.3.6.1.2.1.2.2.1"), 16, func(OID, Value) bool {
		rows++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 4 {
		t.Fatalf("UDP BulkWalk saw %d rows, want 4", rows)
	}
}

// TestUDPExchangeAllocatesLittle: one exchange over a loopback socket —
// dialling, the request, the agent's answer, the datagram read — allocates
// under 4 KiB in all. The 64 KiB a read must have room for is pooled, and
// the caller gets back a copy the size of the datagram.
func TestUDPExchangeAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	srv := &Server{Agent: &Agent{Community: "public", View: testView(t)}}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	req, err := (&Message{Community: "public", PDU: PDU{Type: GetRequest, RequestID: 1,
		VarBinds: []VarBind{{Name: MustParseOID("1.3.6.1.2.1.1.1.0"), Value: Null}}}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	tr := &UDP{Timeout: time.Second}
	exchange := func() {
		resp, _, err := tr.RoundTrip(addr, req)
		if err != nil {
			t.Fatal(err)
		}
		if cap(resp) != len(resp) {
			t.Fatalf("a %d-byte response holds %d bytes", len(resp), cap(resp))
		}
	}
	exchange()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		exchange()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("one UDP exchange: %d bytes", per)
	if per >= 4096 {
		t.Fatalf("one UDP exchange allocates %d bytes, want under 4096", per)
	}
}

func TestUDPTimeout(t *testing.T) {
	srv := &Server{Agent: &Agent{Community: "other", View: testView(t)}}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(&UDP{Timeout: 50 * time.Millisecond}, "public")
	c.Retries = 0
	if _, err := c.Get(context.Background(), addr, MustParseOID("1.3")); err == nil {
		t.Fatal("expected timeout against wrong-community agent")
	}
}

func BenchmarkMarshalGetRequest(b *testing.B) {
	m := &Message{Community: "public", PDU: PDU{Type: GetRequest, RequestID: 1,
		VarBinds: []VarBind{{Name: MustParseOID("1.3.6.1.2.1.2.2.1.10.3"), Value: Null}}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalResponse(b *testing.B) {
	m := &Message{Community: "public", PDU: PDU{Type: GetResponse, RequestID: 1,
		VarBinds: []VarBind{{Name: MustParseOID("1.3.6.1.2.1.2.2.1.10.3"), Value: Counter(1 << 31)}}}}
	buf, err := m.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
