package snmp

import (
	"testing"
)

// benchResponse builds a realistic polling response: 12 counter varbinds
// (6 interfaces x in/out), the shape a batched poller exchanges per device.
func benchResponse() *Message {
	m := &Message{Community: "public", PDU: PDU{Type: GetResponse, RequestID: 12345}}
	for i := 1; i <= 6; i++ {
		m.PDU.VarBinds = append(m.PDU.VarBinds,
			VarBind{Name: MustParseOID("1.3.6.1.2.1.31.1.1.1.6").Append(uint32(i)), Value: Counter64Val(1<<40 + uint64(i)*1e9)},
			VarBind{Name: MustParseOID("1.3.6.1.2.1.31.1.1.1.10").Append(uint32(i)), Value: Counter64Val(2<<40 + uint64(i)*1e9)},
		)
	}
	return m
}

func TestMarshalAllocationBudget(t *testing.T) {
	m := benchResponse()
	// Marshal: exactly one allocation, the output buffer.
	if n := testing.AllocsPerRun(100, func() {
		if _, err := m.Marshal(); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("Marshal allocates %.0f times per call, want <= 1", n)
	}
	// AppendMarshal into a buffer with capacity: zero allocations.
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := m.AppendMarshal(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendMarshal into sized buffer allocates %.0f times per call, want 0", n)
	}
}

// A decoded message is the Message and three backing arrays (varbinds,
// OID sub-identifiers, octets), whatever it carries.
func TestUnmarshalAllocationBudget(t *testing.T) {
	wire, err := mixedResponse().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Unmarshal(wire); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Fatalf("Unmarshal of a 24-varbind mixed response allocates %.0f times, want <= 4", n)
	}
}

// bulkExchange is an agent and a request of the shape a router walk sends
// it: a scalar and two table columns in one GetBulk.
func bulkExchange(t testing.TB) (*Agent, []byte) {
	view, err := NewStaticView(map[string]Value{
		"1.3.6.1.2.1.1.5.0":      Str("dev1"),
		"1.3.6.1.2.1.2.2.1.10.1": Counter(100),
		"1.3.6.1.2.1.2.2.1.10.2": Counter(200),
		"1.3.6.1.2.1.2.2.1.16.1": Counter(300),
		"1.3.6.1.2.1.2.2.1.16.2": Counter(400),
	})
	if err != nil {
		t.Fatal(err)
	}
	req := &Message{Community: "public", PDU: PDU{Type: GetBulkRequest, RequestID: 7, ErrorStatus: 1, ErrorIndex: 8,
		VarBinds: []VarBind{
			{Name: MustParseOID("1.3.6.1.2.1.1.5"), Value: Null},
			{Name: MustParseOID("1.3.6.1.2.1.2.2.1.10"), Value: Null},
			{Name: MustParseOID("1.3.6.1.2.1.2.2.1.16"), Value: Null},
		}}}
	wire, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return &Agent{Community: "public", View: view}, wire
}

// Once its pooled scratch has grown to the request's shape, the agent
// allocates nothing of its own: a caller that keeps every response costs
// the datagram pool one buffer a call, and one that gives each back, as
// the client and Server do, costs it nothing.
func TestHandleBytesAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	a, wire := bulkExchange(t)
	for _, c := range []struct {
		name     string
		giveBack bool
		budget   float64
	}{{"kept", false, 1}, {"given back", true, 0}} {
		if n := testing.AllocsPerRun(200, func() {
			resp := a.HandleBytes(wire)
			if resp == nil {
				t.Fatal("request dropped")
			}
			if c.giveBack {
				releaseDatagram(resp)
			}
		}); n > c.budget {
			t.Errorf("%s: steady-state HandleBytes allocates %.0f times, want <= %.0f", c.name, n, c.budget)
		}
	}
}

// BenchmarkBERCodec measures the codec on a 12-varbind counter response
// and on the 24-varbind mixed one, and the agent's whole exchange. Run
// with -benchmem; the encode path should report 0 B/op when the caller
// reuses its buffer, decode allocates the message and its three arrays,
// and the agent, whose responses go back to the datagram pool as the
// client's do, nothing.
func BenchmarkBERCodec(b *testing.B) {
	m := benchResponse()
	wire, err := m.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	mixed, err := mixedResponse().Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Encode", func(b *testing.B) {
		buf := make([]byte, 0, 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.AppendMarshal(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Unmarshal(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RoundTrip", func(b *testing.B) {
		buf := make([]byte, 0, 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc, err := m.AppendMarshal(buf[:0])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Unmarshal(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DecodeMixed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Unmarshal(mixed); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AgentHandleBytes", func(b *testing.B) {
		a, req := bulkExchange(b)
		releaseDatagram(a.HandleBytes(req)) // the pools' first buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp := a.HandleBytes(req)
			if resp == nil {
				b.Fatal("request dropped")
			}
			releaseDatagram(resp)
		}
	})
}
