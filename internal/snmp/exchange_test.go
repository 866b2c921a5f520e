package snmp

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// wireFile returns the datagram testdata/wire/<name>.hex holds.
func wireFile(t testing.TB, name string) []byte {
	text, err := os.ReadFile("testdata/wire/" + name + ".hex")
	if err != nil {
		t.Fatal(err)
	}
	wire, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// The encoder's fast paths must have changed no byte: testdata/wire holds
// the widest Get and GetBulk of a 32-host cold campus query and their
// responses as the encoder wrote them before it carried sizes between its
// passes and took short sub-identifiers without the base-128 loop.
func TestWireBytesUnchanged(t *testing.T) {
	for _, name := range []string{"get_request", "get_response", "getbulk_request", "getbulk_response"} {
		wire := wireFile(t, name)
		m, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := m.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, wire) {
			t.Errorf("%s: Marshal wrote\n%x\nthe committed encoding is\n%x", name, got, wire)
		}
		got, err = m.AppendMarshal([]byte("prefix"))
		if err != nil || !bytes.Equal(got, append([]byte("prefix"), wire...)) {
			t.Errorf("%s: AppendMarshal differs from the committed encoding (%v)", name, err)
		}
	}
	// Past the sizes the two passes share, a varbind is sized again: the
	// result must still be what decodes back to the message.
	m := &Message{Community: "public", PDU: PDU{Type: GetResponse, RequestID: 1 << 20}}
	for i := uint32(0); i < 3*sizedVarBinds; i++ {
		m.PDU.VarBinds = append(m.PDU.VarBinds,
			VarBind{Name: OID{1, 3, 6, 1, 127, 128, 16383, 16384, i * 1000003}, Value: Str(strings.Repeat("x", int(i%200)))})
	}
	wire, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(wire)
	if err != nil || !reflect.DeepEqual(back, m) {
		t.Fatalf("a %d-varbind message does not survive its encoding (%v)", len(m.PDU.VarBinds), err)
	}
}

// wideView is cols columns of rows objects, each a size-byte string.
func wideView(t *testing.T, cols, rows, size int) (*Table, []OID) {
	t.Helper()
	var binds []Binding
	var roots []OID
	for c := 1; c <= cols; c++ {
		root := OID{1, 3, 6, 1, 5, 1, uint32(c)}
		roots = append(roots, root)
		for r := 1; r <= rows; r++ {
			binds = append(binds, Binding{Name: root.Append(uint32(r)), Value: Str(strings.Repeat("s", size))})
		}
	}
	return NewTable(binds), roots
}

func serveUDP(t *testing.T, a *Agent) string {
	t.Helper()
	srv := &Server{Agent: a}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// A GetBulk whose answer does not fit a datagram is cut at the last whole
// row that does; it used to be built, dropped by the socket, and reported
// as a timeout.
func TestOversizeBulkIsTruncatedNotDropped(t *testing.T) {
	const cols, rows = 40, 64
	view, roots := wideView(t, cols, rows, 40)
	a := &Agent{Community: "public", View: view}
	addr := serveUDP(t, a)
	req := &Message{Community: "public", PDU: PDU{Type: GetBulkRequest, RequestID: 77, ErrorIndex: rows}}
	for _, root := range roots {
		req.PDU.VarBinds = append(req.PDU.VarBinds, VarBind{Name: root, Value: Null})
	}
	// The whole answer, row by row, from one GetBulk per column: each of
	// those fits a datagram.
	full := &Message{Community: "public", PDU: PDU{Type: GetResponse, RequestID: 77}}
	perCol := make([][]VarBind, len(roots))
	for k, root := range roots {
		perCol[k] = handle(t, a, &Message{Community: "public", PDU: PDU{Type: GetBulkRequest, RequestID: 77,
			ErrorIndex: rows, VarBinds: []VarBind{{Name: root, Value: Null}}}}).PDU.VarBinds
	}
	for r := 0; r < rows; r++ {
		for k := range perCol {
			full.PDU.VarBinds = append(full.PDU.VarBinds, perCol[k][r])
		}
	}
	if b, _ := full.Marshal(); len(b) <= maxDatagram {
		t.Fatalf("the whole answer is %d B: not an oversize request", len(b))
	}
	wire, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	respB, _, err := (&UDP{Timeout: 300 * time.Millisecond}).RoundTrip(addr, wire)
	if err != nil {
		t.Fatalf("oversize GetBulk: %v", err)
	}
	resp, err := Unmarshal(respB)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.PDU.VarBinds
	if resp.PDU.ErrorStatus != ErrStatusNoError || len(got) == 0 || len(got)%cols != 0 {
		t.Fatalf("answer has error status %d and %d varbinds, want whole rows of %d", resp.PDU.ErrorStatus, len(got), cols)
	}
	if !reflect.DeepEqual(got, full.PDU.VarBinds[:len(got)]) {
		t.Fatal("the cut answer is not a prefix of the whole one")
	}
	if len(respB) > maxDatagram {
		t.Fatalf("answer is %d B", len(respB))
	}
	// The cut is at the last row that fits: one more would not have.
	full.PDU.VarBinds = full.PDU.VarBinds[:len(got)+cols]
	if b, _ := full.Marshal(); len(b) <= maxDatagram {
		t.Fatalf("answer stops at %d rows, %d would have fit (%d B)", len(got)/cols, len(got)/cols+1, len(b))
	}
	// And the walk that meets the cut goes on from it.
	c := NewClient(&UDP{Timeout: 300 * time.Millisecond}, "public")
	seen := 0
	if err := c.BulkWalkColumns(context.Background(), addr, nil, roots, 0,
		func(int, OID, Value) bool { seen++; return true }); err != nil || seen != cols*rows {
		t.Fatalf("walk over the wide table saw %d of %d objects (%v)", seen, cols*rows, err)
	}
}

// A Get whose answer cannot fit answers tooBig at once, with no varbinds.
func TestOversizeGetAnswersTooBig(t *testing.T) {
	view, roots := wideView(t, 30, 1, 3000)
	addr := serveUDP(t, &Agent{Community: "public", View: view})
	oids := make([]OID, len(roots))
	for i, root := range roots {
		oids[i] = root.Append(1)
	}
	c := NewClient(&UDP{Timeout: 300 * time.Millisecond}, "public")
	start := time.Now()
	_, err := c.Get(context.Background(), addr, oids...)
	if err == nil || errors.Is(err, ErrTimeout) || !strings.Contains(err.Error(), fmt.Sprintf("error status %d", ErrStatusTooBig)) {
		t.Fatalf("oversize Get returned %v after %v, want the agent's tooBig", err, time.Since(start))
	}
	// On the wire: a Response with the request's id and an empty list.
	req := &Message{Community: "public", PDU: PDU{Type: GetNextRequest, RequestID: 9}}
	for _, root := range roots {
		req.PDU.VarBinds = append(req.PDU.VarBinds, VarBind{Name: root, Value: Null})
	}
	wire, _ := req.Marshal()
	respB, _, err := (&UDP{Timeout: 300 * time.Millisecond}).RoundTrip(addr, wire)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := Unmarshal(respB)
	if err != nil {
		t.Fatal(err)
	}
	if want := (PDU{Type: GetResponse, RequestID: 9, ErrorStatus: ErrStatusTooBig, VarBinds: []VarBind{}}); !reflect.DeepEqual(resp.PDU, want) {
		t.Fatalf("oversize GetNext answered %+v, want %+v", resp.PDU, want)
	}
	// What fits is still answered.
	if vbs, err := c.Get(context.Background(), addr, oids[:20]...); err != nil || len(vbs) != 20 {
		t.Fatalf("a Get that fits: %d varbinds, %v", len(vbs), err)
	}
}

// scribble overwrites everything the pooled client scratches hold, the way
// their next exchanges will.
func scribble() {
	var held []*clientScratch
	for i := 0; i < 8; i++ {
		sc := clientPool.Get().(*clientScratch)
		held = append(held, sc)
		clear(sc.dec.msg.PDU.VarBinds[:cap(sc.dec.msg.PDU.VarBinds)])
		for i := range sc.dec.oids[:cap(sc.dec.oids)] {
			sc.dec.oids[:cap(sc.dec.oids)][i] = 0xdead
		}
		for i := range sc.dec.octets[:cap(sc.dec.octets)] {
			sc.dec.octets[:cap(sc.dec.octets)][i] = 0xff
		}
		for i := range sc.buf[:cap(sc.buf)] {
			sc.buf[:cap(sc.buf)][i] = 0xee
		}
		clear(sc.req[:cap(sc.req)])
		for _, own := range sc.own[:cap(sc.own)] {
			for i := range own[:cap(own)] {
				own[:cap(own)][i] = 0xbeef
			}
		}
		clear(sc.at[:cap(sc.at)])
	}
	for _, sc := range held {
		clientPool.Put(sc)
	}
}

// The twin of TestHandleBytesScratchReuse on the client's side: a decoded
// response lives in pooled scratch and is dead once its callback returns,
// so what the client hands out — GetContext's varbinds, a walk's scalars —
// must be copies, and a walk's cursors must survive the walk's own later
// responses being decoded over the one they came in. Two clients on one
// pool interleave exchanges of different shapes, and between them every
// scratch in the pool is overwritten.
func TestClientScratchIsDeadAfterCallback(t *testing.T) {
	binds := map[string]Value{
		"1.3.6.1.2.1.1.1.0":  Str("a device with a long description, longer than any name in the table"),
		"1.3.6.1.2.1.1.2.0":  OIDValue(MustParseOID("1.3.6.1.4.1.99999.1.300000")),
		"1.3.6.1.2.1.1.5.0":  Str("dev1"),
		"1.3.6.1.2.1.1.6.0":  Octets([]byte{}),
		"1.3.6.1.2.1.4.20.0": IPv4([4]byte{10, 0, 0, 1}),
	}
	const rows = 23
	for r := 1; r <= rows; r++ {
		binds[fmt.Sprintf("1.3.6.1.5.1.1.%d", r*1000)] = Str(fmt.Sprintf("row-%d", r))
		binds[fmt.Sprintf("1.3.6.1.5.1.2.%d", r*1000)] = Int64(int64(r))
	}
	view, err := NewStaticView(binds)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Register("a", &Agent{Community: "public", View: view})
	one, two := NewClient(&InProc{Registry: reg}, "public"), NewClient(&InProc{Registry: reg}, "public")
	scalarOIDs := []OID{MustParseOID("1.3.6.1.2.1.1.1.0"), MustParseOID("1.3.6.1.2.1.1.2.0"),
		MustParseOID("1.3.6.1.2.1.1.6.0"), MustParseOID("1.3.6.1.2.1.4.20.0")}
	wantScalars := func() []Value {
		out := make([]Value, len(scalarOIDs))
		for i, o := range scalarOIDs {
			out[i], _ = view.Get(o)
		}
		return out
	}()
	columns := []OID{MustParseOID("1.3.6.1.5.1.1"), MustParseOID("1.3.6.1.5.1.2")}

	type kept struct {
		what string
		got  any
		want any
	}
	var keep []kept
	get := func(c *Client, n int) {
		vbs, err := c.Get(context.Background(), "a", scalarOIDs[:n]...)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]VarBind, n)
		for i := range want {
			want[i] = VarBind{Name: scalarOIDs[i], Value: wantScalars[i]}
		}
		keep = append(keep, kept{fmt.Sprintf("GetContext of %d", n), vbs, want})
	}
	for round := 0; round < 3; round++ {
		var names []string
		var strs []string
		exchanges := 0
		one.Meter = &Meter{}
		// Two rows at a time, then four, then eight, ...: the walk's later
		// responses are larger than, and decoded over, its earlier ones.
		var scalars []Value // copied out, as a caller keeping them must
		err := one.BulkWalkColumns(context.Background(), "a", scalarOIDs, columns, 2,
			func(col int, name OID, v Value) bool {
				if col < 0 {
					scalars = append(scalars, v.Clone())
				}
				if col == 0 {
					names = append(names, name.String())
					strs = append(strs, string(v.Bytes))
					// Beside the walk: the other client's exchanges, of other
					// shapes, and everything in the pool overwritten.
					get(two, 1+len(names)%len(scalarOIDs))
					if len(names)%5 == 0 {
						_ = two.BulkWalk(context.Background(), "a", columns[1], 3, func(OID, Value) bool { return true })
					}
					scribble()
				}
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
		if exchanges, _ = one.Meter.Snapshot(); exchanges < 3 {
			t.Fatalf("the walk took %d exchanges, the test needs cursors carried across three", exchanges)
		}
		scribble()
		keep = append(keep, kept{"walk scalars", scalars, wantScalars})
		var wantNames, wantStrs []string
		for r := 1; r <= rows; r++ {
			wantNames = append(wantNames, fmt.Sprintf("1.3.6.1.5.1.1.%d", r*1000))
			wantStrs = append(wantStrs, fmt.Sprintf("row-%d", r))
		}
		if !reflect.DeepEqual(names, wantNames) || !reflect.DeepEqual(strs, wantStrs) {
			t.Fatalf("round %d: walk beside scribbled scratch saw\n%v\n%v\nwant\n%v\n%v", round, names, strs, wantNames, wantStrs)
		}
		get(one, len(scalarOIDs))
		next, v, err := two.Next(context.Background(), "a", scalarOIDs[0][:len(scalarOIDs[0])-1])
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, kept{"Next", VarBind{Name: next, Value: v}, VarBind{Name: scalarOIDs[0], Value: wantScalars[0]}})
		sysName, err := one.GetOne(context.Background(), "a", MustParseOID("1.3.6.1.2.1.1.5.0"))
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, kept{"GetOne", sysName, Str("dev1")})
	}
	scribble()
	for _, k := range keep {
		if !reflect.DeepEqual(k.got, k.want) {
			t.Errorf("%s, kept past its exchange, now reads\n%v\nwant\n%v", k.what, k.got, k.want)
		}
	}
}

// keepLast is a transport that hands out each response as a private copy
// and keeps it, so a test can destroy it once the client has decoded it.
type keepLast struct {
	inner Transport
	last  []byte
}

func (k *keepLast) RoundTrip(addr string, req []byte) ([]byte, time.Duration, error) {
	resp, rtt, err := k.inner.RoundTrip(addr, req)
	k.last = make([]byte, len(resp))
	copy(k.last, resp)
	return k.last, rtt, err
}

// The client gives each response back as soon as it is decoded, and the
// next exchange may be answered into the same buffer. So a callback must
// be shown nothing read from the datagram: with it filled with 0xFF before
// each read, a Get's varbinds and a walk's scalars and rows — octet
// strings, addresses and OIDs among them — read as the agent's.
func TestDecodedResponseOutlivesItsDatagram(t *testing.T) {
	binds := map[string]Value{
		"1.3.6.1.2.1.1.1.0":  Str("a device with a description"),
		"1.3.6.1.2.1.1.2.0":  OIDValue(MustParseOID("1.3.6.1.4.1.99999.1.300000")),
		"1.3.6.1.2.1.1.6.0":  Octets([]byte{}),
		"1.3.6.1.2.1.4.20.0": IPv4([4]byte{10, 0, 0, 1}),
	}
	for r := 1; r <= 9; r++ {
		binds[fmt.Sprintf("1.3.6.1.5.1.1.%d", r)] = Str(fmt.Sprintf("row-%d", r))
		binds[fmt.Sprintf("1.3.6.1.5.1.2.%d", r)] = IPv4([4]byte{10, 0, 1, byte(r)})
	}
	view, err := NewStaticView(binds)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Register("a", &Agent{Community: "public", View: view})
	tr := &keepLast{inner: &InProc{Registry: reg}}
	c := NewClient(tr, "public")
	scribbleLast := func() {
		for i := range tr.last {
			tr.last[i] = 0xFF
		}
	}
	check := func(what string, name OID, v Value) {
		t.Helper()
		if want, ok := view.Get(name); !ok || !reflect.DeepEqual(v, want) {
			t.Errorf("%s %s reads %v after its datagram was destroyed, want %v", what, name, v, want)
		}
	}
	scalars := []OID{MustParseOID("1.3.6.1.2.1.1.1.0"), MustParseOID("1.3.6.1.2.1.1.2.0"),
		MustParseOID("1.3.6.1.2.1.1.6.0"), MustParseOID("1.3.6.1.2.1.4.20.0")}
	err = c.GetFunc(context.Background(), "a", scalars, func(vbs []VarBind) {
		scribbleLast()
		for _, vb := range vbs {
			check("a Get's", vb.Name, vb.Value)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	columns := []OID{MustParseOID("1.3.6.1.5.1.1"), MustParseOID("1.3.6.1.5.1.2")}
	err = c.BulkWalkColumns(context.Background(), "a", scalars, columns, 2, func(col int, name OID, v Value) bool {
		scribbleLast()
		check("a walk's", name, v)
		if col >= 0 {
			rows++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 18 {
		t.Fatalf("the walk showed %d objects, want 18", rows)
	}
}
