package snmp

import (
	"bytes"
	"reflect"
	"testing"
)

// mixedResponse is a 24-varbind response of the kinds a router walk brings
// back: Counter64 counters, OID values, octet strings (one of them empty)
// and IpAddresses.
func mixedResponse() *Message {
	m := &Message{Community: "public", PDU: PDU{Type: GetResponse, RequestID: 4242}}
	base := MustParseOID("1.3.6.1.2.1.31.1.1.1")
	for i := uint32(1); i <= 6; i++ {
		m.PDU.VarBinds = append(m.PDU.VarBinds,
			VarBind{Name: base.Append(6, i), Value: Counter64Val(1<<40 + uint64(i))},
			VarBind{Name: base.Append(1, i), Value: Str("eth" + string(rune('0'+i)))},
			VarBind{Name: base.Append(99, i), Value: OIDValue(MustParseOID("1.3.6.1.4.1.99999").Append(i, 300000))},
			VarBind{Name: base.Append(20, i), Value: IPv4([4]byte{10, 0, byte(i), 1})},
		)
	}
	m.PDU.VarBinds[1].Value = Octets([]byte{}) // an empty octet string among the rest
	return m
}

// A decoded message's values are cap-limited windows on shared arrays:
// writing through one, or appending to one, must not show in its
// neighbours, in the input, or in a second decode of the same bytes.
func TestUnmarshalValuesDoNotAlias(t *testing.T) {
	want := mixedResponse()
	wire, err := want.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pristine := bytes.Clone(wire)
	m, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("decode(encode(m)) != m:\n got %+v\nwant %+v", m, want)
	}
	if b := m.PDU.VarBinds[1].Value.Bytes; b == nil || len(b) != 0 {
		t.Fatalf("empty octet string decoded to %#v, want empty and non-nil", b)
	}
	for i, vb := range m.PDU.VarBinds {
		for what, spare := range map[string]int{
			"name":  cap(vb.Name) - len(vb.Name),
			"OID":   cap(vb.Value.Oid) - len(vb.Value.Oid),
			"bytes": cap(vb.Value.Bytes) - len(vb.Value.Bytes),
		} {
			if spare != 0 {
				t.Errorf("varbind %d: %s has %d spare capacity, an append would reach its neighbour", i, what, spare)
			}
		}
	}

	// Scribble over every value of the first decode.
	for i := range m.PDU.VarBinds {
		vb := &m.PDU.VarBinds[i]
		for k := range vb.Name {
			vb.Name[k] = 0xdead
		}
		_ = append(vb.Name, 7, 7, 7)
		for k := range vb.Value.Oid {
			vb.Value.Oid[k] = 0xbeef
		}
		_ = append(vb.Value.Oid, 7, 7, 7)
		for k := range vb.Value.Bytes {
			vb.Value.Bytes[k] = 0xff
		}
		_ = append(vb.Value.Bytes, "overrun"...)
		// Each scribble must have stayed inside its own value: everything
		// after this varbind still reads as encoded.
		if rest, wantRest := m.PDU.VarBinds[i+1:], want.PDU.VarBinds[i+1:]; !reflect.DeepEqual(rest, wantRest) {
			t.Fatalf("writing through varbind %d changed a later one:\n got %+v\nwant %+v", i, rest, wantRest)
		}
	}
	if !bytes.Equal(wire, pristine) {
		t.Fatal("writing through decoded values changed the input bytes")
	}
	again, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("a second Unmarshal saw the first one's scribbles:\n got %+v\nwant %+v", again, want)
	}
}

// The agent decodes into pooled scratch and answers with the request's own
// names: a response must be fully encoded before the scratch is reused, so
// interleaved requests of different shapes must each get their own answer.
func TestHandleBytesScratchReuse(t *testing.T) {
	tab := testView(t).Table()
	a := &Agent{Community: "public", View: tab}
	reqs := []*Message{
		{Community: "public", PDU: PDU{Type: GetRequest, RequestID: 1, VarBinds: []VarBind{
			{Name: MustParseOID("1.3.6.1.2.1.1.5.0"), Value: Null},
			{Name: MustParseOID("1.3.6.1.99"), Value: Null}}}},
		{Community: "public", PDU: PDU{Type: GetBulkRequest, RequestID: 2, ErrorStatus: 1, ErrorIndex: 3, VarBinds: []VarBind{
			{Name: MustParseOID("1.3.6.1.2.1.1.1"), Value: Null},
			{Name: MustParseOID("1.3.6.1.2.1.2.2.1.10"), Value: Null},
			{Name: MustParseOID("1.3.6.1.2.1.2.2.1.16"), Value: Null}}}},
		{Community: "public", PDU: PDU{Type: GetNextRequest, RequestID: 3, VarBinds: []VarBind{
			{Name: MustParseOID("1.3.6.1.2.1.2.2.1.16.1"), Value: Null}}}}, // runs off the view
		{Community: "public", PDU: PDU{Type: SetRequest, RequestID: 4, VarBinds: []VarBind{
			{Name: MustParseOID("1.3.6.1.2.1.1.5.0"), Value: Str("x")}}}}, // refused, varbinds echoed
	}
	for round := 0; round < 3; round++ {
		for _, req := range reqs {
			wire, err := req.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			got := a.HandleBytes(wire)
			if want := refAnswer(tab.binds, wire, "public", 64); !bytes.Equal(got, want) {
				t.Fatalf("request %d, round %d: the agent and the reference disagree:\n got %x\nwant %x",
					req.PDU.RequestID, round, got, want)
			}
		}
	}
	if a.HandleBytes([]byte{0x30, 0x03, 0x02, 0x01}) != nil {
		t.Fatal("a truncated request was answered")
	}
	other, _ := (&Message{Community: "private", PDU: PDU{Type: GetRequest}}).Marshal()
	if a.HandleBytes(other) != nil {
		t.Fatal("a request under another community was answered")
	}
}

// GetBulk's non-repeaters and max-repetitions come from the peer: the
// response slice is sized after they are clamped, never by them.
func TestGetBulkPresizeIsClamped(t *testing.T) {
	a := &Agent{Community: "public", View: testView(t)}
	for _, c := range []struct {
		name           string
		nonRep, maxRep int
	}{
		{"huge max-repetitions", 0, 4096},
		{"negative non-repeaters", -1000, 40},
		{"both", -1 << 30, 1 << 30},
		{"negative max-repetitions", 0, -5},
	} {
		req := &Message{Community: "public", PDU: PDU{Type: GetBulkRequest,
			ErrorStatus: c.nonRep, ErrorIndex: c.maxRep,
			VarBinds: []VarBind{{Name: MustParseOID("1.3.6.1.2.1.2.2.1.10"), Value: Null}}}}
		resp := handle(t, a, req)
		// The rows of a fresh scratch: one repeater, at most the default 64
		// repetitions; allow for the allocator rounding a slice up to its
		// size class.
		wire, _ := req.Marshal()
		sc := &agentScratch{dec: decoder{raw: true}}
		if err := sc.dec.decode(wire); err != nil {
			t.Fatal(err)
		}
		if _, ok := a.respond(sc); !ok || cap(sc.rows) > 2*64 {
			t.Errorf("%s: the agent sized %d rows for at most 64", c.name, cap(sc.rows))
		}
		if len(resp.PDU.VarBinds) > 64 {
			t.Errorf("%s: %d rows returned, cap is 64", c.name, len(resp.PDU.VarBinds))
		}
	}
}
