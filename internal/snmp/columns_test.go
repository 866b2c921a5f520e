package snmp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// tableView is a device with a three-column table of unequal columns (.1
// has five rows, .2 two, .3 none), two scalars, and one object after the
// table so that a walk leaves a column by meeting a foreign OID, not only
// by running off the MIB.
func tableView(t testing.TB) MIBView {
	t.Helper()
	binds := map[string]Value{
		"1.3.6.1.2.1.1.3.0": Ticks(4200),
		"1.3.6.1.2.1.1.5.0": Str("dev1"),
		"1.3.6.1.9.9.0":     Int64(9),
	}
	for row := 1; row <= 5; row++ {
		binds[fmt.Sprintf("1.3.6.1.5.1.1.%d", row)] = Int64(int64(100 + row))
	}
	for row := 1; row <= 2; row++ {
		binds[fmt.Sprintf("1.3.6.1.5.1.2.%d", row)] = Int64(int64(200 + row))
	}
	v, err := NewStaticView(binds)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

var (
	tableColumns = []OID{MustParseOID("1.3.6.1.5.1.1"), MustParseOID("1.3.6.1.5.1.2"), MustParseOID("1.3.6.1.5.1.3")}
	sysUpTime0   = MustParseOID("1.3.6.1.2.1.1.3.0")
	sysName0     = MustParseOID("1.3.6.1.2.1.1.5.0")
)

// walkTable runs BulkWalkColumns over the table and returns each column's
// values, copies of the scalars and the number of exchanges.
func walkTable(t *testing.T, c *Client, addr string, scalars []OID, maxRep int) ([][]int64, []Value, int) {
	t.Helper()
	c.Meter = &Meter{}
	cols := make([][]int64, len(tableColumns))
	var vals []Value
	err := c.BulkWalkColumns(context.Background(), addr, scalars, tableColumns, maxRep,
		func(col int, name OID, v Value) bool {
			if col < 0 {
				if len(vals) != -1-col || name.Cmp(scalars[-1-col]) != 0 {
					t.Errorf("scalar %d shown as column %d, named %s", len(vals), col, name)
				}
				vals = append(vals, v.Clone())
				return true
			}
			if len(vals) != len(scalars) {
				t.Errorf("column %d shown before the scalars", col)
			}
			if !name.HasPrefix(tableColumns[col]) {
				t.Errorf("column %d handed %s", col, name)
			}
			cols[col] = append(cols[col], v.Int)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := c.Meter.Snapshot()
	return cols, vals, n
}

var wantTable = [][]int64{{101, 102, 103, 104, 105}, {201, 202}, nil}

func TestBulkWalkColumnsUnequalAndEmptyColumns(t *testing.T) {
	c, reg := newInProcClient(t, "public")
	reg.Register("a", &Agent{Community: "public", View: tableView(t)})
	// Eight rows cover the longest column: everything ends in one exchange.
	cols, vals, n := walkTable(t, c, "a", []OID{sysName0, sysUpTime0}, 8)
	if !reflect.DeepEqual(cols, wantTable) {
		t.Fatalf("columns = %v, want %v", cols, wantTable)
	}
	if n != 1 {
		t.Fatalf("walk took %d exchanges, want 1", n)
	}
	if string(vals[0].Bytes) != "dev1" || vals[1].Int != 4200 {
		t.Fatalf("scalars = %v", vals)
	}
	// Two rows at a time: the empty and the short column are dropped from
	// the requests as they end, the long one walks on alone, and the
	// repetition count doubles while responses come back full (2, then 4).
	cols, _, n = walkTable(t, c, "a", nil, 2)
	if !reflect.DeepEqual(cols, wantTable) {
		t.Fatalf("columns = %v, want %v", cols, wantTable)
	}
	if n != 2 {
		t.Fatalf("walk took %d exchanges, want 2", n)
	}
}

func TestBulkWalkColumnsRequestsShrink(t *testing.T) {
	c, reg := newInProcClient(t, "public")
	reg.Register("a", &Agent{Community: "public", View: tableView(t)})
	var widths []int
	c.Transport = &tapTransport{inner: c.Transport, onRequest: func(m *Message) {
		widths = append(widths, len(m.PDU.VarBinds))
	}}
	walkTable(t, c, "a", []OID{sysName0}, 1)
	// Scalar + three columns; then only the columns that had a first row;
	// after the short column's two rows, the long one alone.
	want := []int{4, 2, 1}
	if !reflect.DeepEqual(widths, want) {
		t.Fatalf("request widths = %v, want %v", widths, want)
	}
}

func TestBulkWalkColumnsEndOfMibViewMidResponse(t *testing.T) {
	// The table's columns are the last objects of this MIB: the second
	// column runs off the end while the first still has rows, so its
	// positions in the later rows of the same response hold endOfMibView.
	v, err := NewStaticView(map[string]Value{
		"1.3.6.1.5.1.1.1": Int64(101), "1.3.6.1.5.1.1.2": Int64(102), "1.3.6.1.5.1.1.3": Int64(103),
		"1.3.6.1.5.1.2.1": Int64(201),
	})
	if err != nil {
		t.Fatal(err)
	}
	c, reg := newInProcClient(t, "public")
	reg.Register("a", &Agent{Community: "public", View: v})
	var got []string
	err = c.BulkWalkColumns(context.Background(), "a", nil, tableColumns[:2], 4,
		func(col int, name OID, v Value) bool {
			got = append(got, fmt.Sprintf("%d:%d", col, v.Int))
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	// Row by row; the second column's endOfMibView in rows two and three
	// is stepped over while the first column walks on in the same response.
	want := []string{"0:101", "1:201", "0:102", "0:103"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walk order = %v, want %v", got, want)
	}
}

func TestBulkWalkColumnsAgentCapsRepetitions(t *testing.T) {
	c, reg := newInProcClient(t, "public")
	reg.Register("a", &Agent{Community: "public", View: tableView(t), MaxRepetitions: 2})
	var asked []int
	c.Transport = &tapTransport{inner: c.Transport, onRequest: func(m *Message) {
		asked = append(asked, m.PDU.ErrorIndex)
	}}
	cols, _, _ := walkTable(t, c, "a", nil, 16)
	if !reflect.DeepEqual(cols, wantTable) {
		t.Fatalf("columns = %v, want %v", cols, wantTable)
	}
	// The agent answers two rows whatever it is asked: the walk asks for
	// two from then on instead of growing the request.
	want := []int{16, 2, 2}
	if !reflect.DeepEqual(asked, want) {
		t.Fatalf("max-repetitions asked = %v, want %v", asked, want)
	}
}

func TestBulkWalkColumnsMissingScalars(t *testing.T) {
	c, reg := newInProcClient(t, "public")
	reg.Register("a", &Agent{Community: "public", View: tableView(t)})
	absent := MustParseOID("1.3.6.1.2.1.1.4.0") // between the two the agent holds
	past := MustParseOID("1.3.6.1.9.9.9.0")     // after the whole MIB
	cols, vals, _ := walkTable(t, c, "a", []OID{absent, sysName0, past}, 8)
	if !reflect.DeepEqual(cols, wantTable) {
		t.Fatalf("columns = %v, want %v", cols, wantTable)
	}
	if vals[0].Kind != KindNoSuchObject || vals[2].Kind != KindNoSuchObject {
		t.Fatalf("missing scalars came back as %v and %v, want noSuchObject", vals[0], vals[2])
	}
	if string(vals[1].Bytes) != "dev1" {
		t.Fatalf("present scalar = %v", vals[1])
	}
	// Scalars alone, no columns: one exchange.
	c.Meter = &Meter{}
	var up Value
	err := c.BulkWalkColumns(context.Background(), "a", []OID{sysUpTime0}, nil, 0,
		func(_ int, _ OID, v Value) bool { up = v; return true })
	if err != nil || up.Int != 4200 {
		t.Fatalf("scalar-only walk = %v, %v", up, err)
	}
	if n, _ := c.Meter.Snapshot(); n != 1 {
		t.Fatalf("scalar-only walk took %d exchanges", n)
	}
}

func TestBulkWalkColumnsEarlyStop(t *testing.T) {
	c, reg := newInProcClient(t, "public")
	reg.Register("a", &Agent{Community: "public", View: tableView(t)})
	c.Meter = &Meter{}
	seen := 0
	var name string
	err := c.BulkWalkColumns(context.Background(), "a", []OID{sysName0}, tableColumns, 1,
		func(col int, _ OID, v Value) bool {
			if col < 0 {
				name = string(v.Bytes)
				return true
			}
			seen++
			return seen < 3
		})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 3 {
		t.Fatalf("callback ran %d times after asking to stop at 3", seen)
	}
	if name != "dev1" {
		t.Fatalf("scalar lost on early stop: %q", name)
	}
	if n, _ := c.Meter.Snapshot(); n != 2 {
		t.Fatalf("stopped walk took %d exchanges, want 2", n)
	}
}

func TestBulkWalkColumnsCancelBetweenPDUs(t *testing.T) {
	c, reg := newInProcClient(t, "public")
	reg.Register("a", &Agent{Community: "public", View: tableView(t)})
	c.Meter = &Meter{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := c.BulkWalkColumns(ctx, "a", nil, tableColumns, 1, func(int, OID, Value) bool {
		cancel() // during the first response: the second request must not go out
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled walk returned %v", err)
	}
	if n, _ := c.Meter.Snapshot(); n != 1 {
		t.Fatalf("canceled walk sent %d requests, want 1", n)
	}
}

func TestBulkWalkColumnsRejectsBackwardsAgent(t *testing.T) {
	c := NewClient(stuckAgent{}, "public")
	err := c.BulkWalkColumns(context.Background(), "a", nil, tableColumns[:1], 4,
		func(int, OID, Value) bool { return true })
	if err == nil {
		t.Fatal("walk of an agent that never advances returned without error")
	}
}

// stuckAgent answers every repetition of every GetBulk with the same
// object, which no agent serving a Table can.
type stuckAgent struct{}

func (stuckAgent) RoundTrip(_ string, req []byte) ([]byte, time.Duration, error) {
	m, err := Unmarshal(req)
	if err != nil {
		return nil, 0, err
	}
	resp := &Message{Community: m.Community, PDU: PDU{Type: GetResponse, RequestID: m.PDU.RequestID}}
	for i := 0; i < m.PDU.ErrorIndex; i++ {
		resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{Name: MustParseOID("1.3.6.1.5.1.1.1"), Value: Int64(1)})
	}
	b, err := resp.Marshal()
	return b, 0, err
}

func TestBulkWalkColumnsSameOverUDP(t *testing.T) {
	view := tableView(t)
	c, reg := newInProcClient(t, "public")
	reg.Register("a", &Agent{Community: "public", View: view})
	srv := &Server{Agent: &Agent{Community: "public", View: view}}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	udp := NewClient(&UDP{Timeout: time.Second}, "public")
	for _, maxRep := range []int{1, 3, 8} {
		inCols, inVals, inN := walkTable(t, c, "a", []OID{sysName0, sysUpTime0}, maxRep)
		udpCols, udpVals, udpN := walkTable(t, udp, addr, []OID{sysName0, sysUpTime0}, maxRep)
		if !reflect.DeepEqual(inCols, udpCols) || !reflect.DeepEqual(inVals, udpVals) || inN != udpN {
			t.Fatalf("maxRep %d: in-process walk (%v, %v, %d exchanges) != UDP walk (%v, %v, %d exchanges)",
				maxRep, inCols, inVals, inN, udpCols, udpVals, udpN)
		}
		if !reflect.DeepEqual(inCols, wantTable) {
			t.Fatalf("maxRep %d: columns = %v, want %v", maxRep, inCols, wantTable)
		}
	}
}

// The one-column case is BulkWalk: same objects, same order as the GetNext
// walk, for every repetition count.
func TestBulkWalkIsTheOneColumnCase(t *testing.T) {
	c, reg := newInProcClient(t, "public")
	reg.Register("a", &Agent{Community: "public", View: tableView(t)})
	root := MustParseOID("1.3.6.1.5")
	var want []string
	if err := c.Walk(context.Background(), "a", root, func(o OID, v Value) bool {
		want = append(want, o.String()+"="+v.String())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for maxRep := 1; maxRep <= 9; maxRep++ {
		var got []string
		if err := c.BulkWalk(context.Background(), "a", root, maxRep, func(o OID, v Value) bool {
			got = append(got, o.String()+"="+v.String())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("BulkWalk(maxRep %d) = %v, want %v", maxRep, got, want)
		}
	}
}

// tapTransport shows a test every request on its way out.
type tapTransport struct {
	inner     Transport
	onRequest func(*Message)
}

func (t *tapTransport) RoundTrip(addr string, req []byte) ([]byte, time.Duration, error) {
	if m, err := Unmarshal(req); err == nil {
		t.onRequest(m)
	}
	return t.inner.RoundTrip(addr, req)
}

// The agent answers repeaters row by row (RFC 3416 §4.2.3), which is what
// lets a client tell the columns of a multi-repeater response apart.
func TestAgentGetBulkInterleavesRepeaters(t *testing.T) {
	a := &Agent{Community: "public", View: tableView(t)}
	resp := handle(t, a, &Message{Community: "public", PDU: PDU{Type: GetBulkRequest,
		ErrorStatus: 1, ErrorIndex: 3,
		VarBinds: []VarBind{
			{Name: MustParseOID("1.3.6.1.2.1.1.5"), Value: Null},
			{Name: tableColumns[0], Value: Null},
			{Name: MustParseOID("1.3.6.1.9.9"), Value: Null}, // one object, then the end of the MIB
		}}})
	var got []string
	for _, vb := range resp.PDU.VarBinds {
		got = append(got, vb.Name.String()+"="+vb.Value.String())
	}
	want := []string{
		`1.3.6.1.2.1.1.5.0=OctetString("dev1")`,
		"1.3.6.1.5.1.1.1=Integer(101)", "1.3.6.1.9.9.0=Integer(9)",
		"1.3.6.1.5.1.1.2=Integer(102)", "1.3.6.1.9.9.0=endOfMibView",
		"1.3.6.1.5.1.1.3=Integer(103)", "1.3.6.1.9.9.0=endOfMibView",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GetBulk response = %v, want %v", got, want)
	}
}
