package snmp

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// corpusMessages are the seed messages for the decoder fuzzer: one of each
// PDU type, every value kind, varbind exceptions, multi-byte lengths and
// base-128 sub-identifiers, and Counter64 values past the 32-bit range.
func corpusMessages() []*Message {
	long := make([]byte, 300) // forces a multi-byte BER length
	for i := range long {
		long[i] = byte(i)
	}
	return []*Message{
		{Community: "public", PDU: PDU{Type: GetRequest, RequestID: 1,
			VarBinds: []VarBind{{Name: MustParseOID("1.3.6.1.2.1.1.1.0"), Value: Null}}}},
		{Community: "public", PDU: PDU{Type: GetResponse, RequestID: 2,
			VarBinds: []VarBind{
				{Name: MustParseOID("1.3.6.1.2.1.1.1.0"), Value: Str("remos emulated router r1")},
				{Name: MustParseOID("1.3.6.1.2.1.2.2.1.10.3"), Value: Counter(4294967295)},
				{Name: MustParseOID("1.3.6.1.2.1.31.1.1.1.6.3"), Value: Counter64Val(1 << 40)},
				{Name: MustParseOID("1.3.6.1.2.1.2.2.1.5.3"), Value: Gauge(1000000000)},
				{Name: MustParseOID("1.3.6.1.2.1.1.3.0"), Value: Ticks(123456)},
				{Name: MustParseOID("1.3.6.1.2.1.4.21.1.7.10.0.0.1"), Value: IPv4([4]byte{10, 0, 0, 1})},
				{Name: MustParseOID("1.3.6.1.4.1.99999.1"), Value: OIDValue(MustParseOID("1.3.6.1.4.1.99999.2.300000"))},
				{Name: MustParseOID("1.3.6.1.2.1.1.9"), Value: Int64(-129)},
			}}},
		{Community: "private", PDU: PDU{Type: GetNextRequest, RequestID: -7,
			VarBinds: []VarBind{{Name: MustParseOID("2.100.3"), Value: Null}}}},
		{Community: "public", PDU: PDU{Type: GetBulkRequest, RequestID: 3, ErrorStatus: 1, ErrorIndex: 32,
			VarBinds: []VarBind{{Name: MustParseOID("1.3.6.1.2.1.2.2.1"), Value: Null}}}},
		// A lock-step column walk: two non-repeaters and three repeaters,
		// and its response of two rows, the last column ending mid-response.
		{Community: "public", PDU: PDU{Type: GetBulkRequest, RequestID: 8, ErrorStatus: 2, ErrorIndex: 2,
			VarBinds: []VarBind{
				{Name: MustParseOID("1.3.6.1.2.1.1.5"), Value: Null},
				{Name: MustParseOID("1.3.6.1.2.1.1.3"), Value: Null},
				{Name: MustParseOID("1.3.6.1.2.1.4.21.1.1"), Value: Null},
				{Name: MustParseOID("1.3.6.1.2.1.4.21.1.7"), Value: Null},
				{Name: MustParseOID("1.3.6.1.2.1.4.22.1.2"), Value: Null},
			}}},
		{Community: "public", PDU: PDU{Type: GetResponse, RequestID: 8,
			VarBinds: []VarBind{
				{Name: MustParseOID("1.3.6.1.2.1.1.5.0"), Value: Str("gw0")},
				{Name: MustParseOID("1.3.6.1.2.1.1.3.0"), Value: Ticks(4200)},
				{Name: MustParseOID("1.3.6.1.2.1.4.21.1.1.10.0.16.0"), Value: IPv4([4]byte{10, 0, 16, 0})},
				{Name: MustParseOID("1.3.6.1.2.1.4.21.1.7.10.0.16.0"), Value: IPv4([4]byte{0, 0, 0, 0})},
				{Name: MustParseOID("1.3.6.1.2.1.4.22.1.2.2.10.0.16.9"), Value: Octets([]byte{2, 0, 0, 0, 0, 9})},
				{Name: MustParseOID("1.3.6.1.2.1.4.21.1.1.10.0.32.0"), Value: IPv4([4]byte{10, 0, 32, 0})},
				{Name: MustParseOID("1.3.6.1.2.1.4.21.1.7.10.0.32.0"), Value: IPv4([4]byte{10, 0, 0, 2})},
				{Name: MustParseOID("1.3.6.1.2.1.4.22.1.2.2.10.0.16.9"), Value: EndOfMibView},
			}}},
		{Community: "public", PDU: PDU{Type: GetResponse, RequestID: 4,
			VarBinds: []VarBind{
				{Name: MustParseOID("1.3.6.1.99.1"), Value: NoSuchObject},
				{Name: MustParseOID("1.3.6.1.99.2"), Value: Value{Kind: KindNoSuchInstance}},
				{Name: MustParseOID("1.3.6.1.99.3"), Value: EndOfMibView},
			}}},
		{Community: "public", PDU: PDU{Type: GetResponse, RequestID: 5,
			VarBinds: []VarBind{{Name: MustParseOID("1.3.6.1.2.1.1.1.0"), Value: Octets(long)}}}},
		{Community: "", PDU: PDU{Type: SetRequest, RequestID: 6, ErrorStatus: 5, ErrorIndex: 1,
			VarBinds: []VarBind{{Name: MustParseOID("0.0"), Value: Int64(0)}}}},
	}
}

// dirtyDecoder returns a decoder as the pools hold them: it has decoded a
// larger message than most inputs (so its arenas are full of another
// message's values), and its last decode failed mid-message.
func dirtyDecoder(t testing.TB) *decoder {
	var d decoder
	for _, m := range corpusMessages() {
		b, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.decode(b); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := mixedResponse().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.decode(whole); err != nil {
		t.Fatal(err)
	}
	whole[len(whole)-6] = 0x7f // the last value (an IpAddress) under a tag nobody decodes
	if err := d.decode(whole); err == nil {
		t.Fatal("the broken message decoded")
	}
	return &d
}

// FuzzDecodeMessage drives the BER decoder with arbitrary bytes. The
// decoder must never panic or read out of bounds, and anything it accepts
// must re-encode and re-decode to the identical message (the decoded form
// is canonical). A reused decoder — single pass, arenas grown by append,
// whatever it held before — must decode every input to the same message,
// or fail with the same error, as the fresh one that pre-scans.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range corpusMessages() {
		b, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, body := range offEncodingBodies {
		f.Add(getWithNameBody(f, body))
	}
	f.Add([]byte{})
	f.Add([]byte{0x30, 0x84, 0xff, 0xff, 0xff, 0xff}) // absurd length claim
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		d := dirtyDecoder(t)
		switch derr := d.decode(b); {
		case (err == nil) != (derr == nil), err != nil && err.Error() != derr.Error():
			t.Fatalf("a fresh decoder says %v, a reused one %v", err, derr)
		case err == nil:
			d.msg.Community = communityString(d.community, defaultCommunity)
			if !reflect.DeepEqual(m, &d.msg) {
				t.Fatalf("a reused decoder disagrees with a fresh one:\n fresh: %+v\nreused: %+v", m, &d.msg)
			}
		}
		if err != nil {
			return
		}
		enc, err := m.Marshal()
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		m2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("decode(encode(m)) != m:\n m: %+v\nm2: %+v", m, m2)
		}
	})
}

// TestMessageRoundTripProperty checks decode(encode(m)) == m over randomly
// generated canonical messages covering every value kind.
func TestMessageRoundTripProperty(t *testing.T) {
	types := []PDUType{GetRequest, GetNextRequest, GetResponse, SetRequest, GetBulkRequest}
	genOID := func(rng *rand.Rand) OID {
		o := OID{1, 3}
		for n := rng.Intn(10); n > 0; n-- {
			o = append(o, uint32(rng.Int63n(1<<32)))
		}
		return o
	}
	genValue := func(rng *rand.Rand) Value {
		switch rng.Intn(10) {
		case 0:
			return Null
		case 1:
			return Int64(rng.Int63() - rng.Int63())
		case 2:
			b := make([]byte, rng.Intn(40))
			rng.Read(b)
			return Octets(b)
		case 3:
			return OIDValue(genOID(rng))
		case 4:
			return IPv4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
		case 5:
			return Counter(uint64(rng.Int63()))
		case 6:
			return Gauge(uint32(rng.Int63()))
		case 7:
			return Ticks(uint32(rng.Int63()))
		case 8:
			return Counter64Val(uint64(rng.Int63())<<1 | uint64(rng.Intn(2)))
		default:
			return []Value{NoSuchObject, {Kind: KindNoSuchInstance}, EndOfMibView}[rng.Intn(3)]
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &Message{
			Community: string(rune('a' + rng.Intn(26))),
			PDU: PDU{
				Type:        types[rng.Intn(len(types))],
				RequestID:   int32(rng.Int63()),
				ErrorStatus: rng.Intn(20),
				ErrorIndex:  rng.Intn(100),
				VarBinds:    make([]VarBind, 0, 4),
			},
		}
		for n := rng.Intn(8); n > 0; n-- {
			m.PDU.VarBinds = append(m.PDU.VarBinds, VarBind{Name: genOID(rng), Value: genValue(rng)})
		}
		enc, err := m.Marshal()
		if err != nil {
			t.Logf("marshal: %v", err)
			return false
		}
		back, err := Unmarshal(enc)
		if err != nil {
			t.Logf("unmarshal: %v", err)
			return false
		}
		return reflect.DeepEqual(m, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// offEncodingBodies are OID bodies outside the one encoding the decoder
// accepts. Before it was enforced they decoded to 1.3.0, 1.3.1 and 1.3.5,
// so a malformed name reached a different object.
var offEncodingBodies = [][]byte{
	{0x2b, 0x90, 0x80, 0x80, 0x80, 0x00},       // 2^32: wrapped to 0
	{0x2b, 0x81, 0x80, 0x80, 0x80, 0x80, 0x01}, // 2^35+1: wrapped to 1
	{0x2b, 0x80, 0x05},                         // 5 with a leading 0x80
}

// getWithNameBody is a GetRequest of one name given as its encoded body,
// which need not be one the encoder writes.
func getWithNameBody(t testing.TB, body []byte) []byte {
	// The same message with a placeholder name of the body's length, whose
	// body is then overwritten.
	name := OID{1, 3}
	for len(name) < len(body)+1 {
		name = append(name, 0x55)
	}
	wire, err := (&Message{Community: "public", PDU: PDU{Type: GetRequest, RequestID: 1,
		VarBinds: []VarBind{{Name: name, Value: Null}}}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(wire, appendOIDBody(nil, name))
	copy(wire[at:], body)
	return wire
}

func TestOIDBodyHasOneEncoding(t *testing.T) {
	tab := NewTable([]Binding{
		{Name: OID{1, 3, 0}, Value: Str("zero")},
		{Name: OID{1, 3, 1}, Value: Str("one")},
		{Name: OID{1, 3, 5}, Value: Str("five")},
	})
	a := &Agent{Community: "public", View: tab}
	for _, body := range offEncodingBodies {
		subs, err := appendOIDSubs(nil, body)
		if err == nil {
			t.Errorf("% x decodes to %v", body, OID(subs))
		}
		if cerr := checkOIDBody(body); !errors.Is(cerr, err) {
			t.Errorf("% x: the decoder says %v, the agent's check %v", body, err, cerr)
		}
		wire := getWithNameBody(t, body)
		if m, err := Unmarshal(wire); err == nil {
			t.Errorf("a Get of % x decodes, naming %v", body, m.PDU.VarBinds[0].Name)
		}
		if err := dirtyDecoder(t).decode(wire); err == nil {
			t.Errorf("a reused decoder accepts a Get of % x", body)
		}
		if resp := a.HandleBytes(wire); resp != nil {
			t.Errorf("the agent answers a Get of % x", body)
		}
	}
	// Both sides of each bound: the largest sub-identifier, and the
	// shortest encodings of every width, are accepted.
	for _, sub := range []uint32{0, 127, 128, 1<<14 - 1, 1 << 14, 1<<21 - 1, 1 << 21, 1<<28 - 1, 1 << 28, 1<<32 - 1} {
		body := appendOIDBody(nil, OID{1, 3, sub})
		got, err := appendOIDSubs(nil, body)
		if err != nil || checkOIDBody(body) != nil || !slices.Equal(got, []uint32{1, 3, sub}) {
			t.Errorf("% x (1.3.%d) decodes to %v, %v", body, sub, OID(got), err)
		}
	}
}

// fuzzTable is the layout FuzzAgentHandleBytes serves: random names at the
// base-128 boundaries of every value kind, and every name the seed
// responses carry, their counters bound live.
func fuzzTable(t testing.TB) *Table {
	binds := randomBindings(rand.New(rand.NewSource(1)), 64)
	resps := corpusMessages()
	for _, name := range []string{"get_response", "getbulk_response"} {
		m, err := Unmarshal(wireFile(t, name))
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, m)
	}
	for _, m := range resps {
		if m.PDU.Type != GetResponse {
			continue
		}
		for _, vb := range m.PDU.VarBinds {
			switch v := vb.Value; v.Kind {
			case KindCounter32, KindCounter64:
				binds = append(binds, Binding{Name: vb.Name, Live: func() Value { return v }})
			default:
				binds = append(binds, Binding{Name: vb.Name, Value: v})
			}
		}
	}
	return NewTable(binds)
}

// FuzzAgentHandleBytes drives the agent — what snmp.Server answers every
// UDP datagram with — with arbitrary bytes. It must never panic; it drops
// exactly what the reference agent (decode, a linear search per varbind,
// encode) drops; and anything else it answers with at most one datagram:
// a GetResponse under the request's ID, byte for byte the reference's.
// Responses are encoded into recycled buffers, so each input is answered
// twice more: into the first answer's buffer, and into one full of
// garbage. Both must be the reference's bytes too.
func FuzzAgentHandleBytes(f *testing.F) {
	for _, m := range corpusMessages() {
		b, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, name := range []string{"get_request", "getbulk_request"} {
		f.Add(wireFile(f, name))
	}
	for _, body := range offEncodingBodies {
		f.Add(getWithNameBody(f, body))
	}
	tab := fuzzTable(f)
	a := &Agent{Community: "public", View: tab, MaxRepetitions: 16}
	garbage := new(datagram)
	f.Fuzz(func(t *testing.T, b []byte) {
		got := a.HandleBytes(b)
		want := refAnswer(tab.binds, b, a.Community, a.MaxRepetitions)
		if (got == nil) != (want == nil) {
			t.Fatalf("the agent answers %d B, the reference %d B (nil is a drop)", len(got), len(want))
		}
		if got == nil {
			return
		}
		if len(got) > maxDatagram {
			t.Fatalf("a %d B answer", len(got))
		}
		req, _ := Unmarshal(b) // the reference decoded it
		resp, err := Unmarshal(got)
		if err != nil || resp.PDU.Type != GetResponse || resp.PDU.RequestID != req.PDU.RequestID {
			t.Fatalf("the answer is not a GetResponse to request %d: %+v, %v", req.PDU.RequestID, resp, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("the agent and the reference disagree:\n got %x\nwant %x", got, want)
		}
		if again := a.answer(got[:0], b); !bytes.Equal(again, want) {
			t.Fatalf("answered into its first answer's buffer, the agent says\n%x\nthe reference\n%x", again, want)
		}
		releaseDatagram(got)
		for i := range garbage {
			garbage[i] = byte(i*131 + 7)
		}
		if third := a.answer(garbage[:0], b); !bytes.Equal(third, want) {
			t.Fatalf("answered into a buffer of garbage, the agent says\n%x\nthe reference\n%x", third, want)
		}
	})
}
