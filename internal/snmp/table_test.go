package snmp

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The reference a Table is held to: a linear scan over the sorted
// bindings, and an agent that answers every varbind by scanning again.

func refGet(sorted []Binding, oid OID) (Value, bool) {
	for i := range sorted {
		if sorted[i].Name.Cmp(oid) == 0 {
			return sorted[i].value(), true
		}
	}
	return Value{}, false
}

func refSeek(sorted []Binding, oid OID) int {
	for i := range sorted {
		if sorted[i].Name.Cmp(oid) > 0 {
			return i
		}
	}
	return len(sorted)
}

// refNext is one GetNext step, and whether it found a successor: a bound
// value may itself be endOfMibView.
func refNext(sorted []Binding, name OID) (VarBind, bool) {
	if i := refSeek(sorted, name); i < len(sorted) {
		return VarBind{Name: sorted[i].Name, Value: sorted[i].value()}, true
	}
	return VarBind{Name: name, Value: EndOfMibView}, false
}

// refRespond is RFC 3416 §4.2.1–4.2.3 read literally: every varbind of the
// response is one search of the whole MIB.
func refRespond(sorted []Binding, req *PDU, limit int) []VarBind {
	out := []VarBind{}
	switch req.Type {
	case GetRequest:
		for _, vb := range req.VarBinds {
			v, ok := refGet(sorted, vb.Name)
			if !ok {
				v = NoSuchObject
			}
			out = append(out, VarBind{Name: vb.Name, Value: v})
		}
	case GetNextRequest:
		for _, vb := range req.VarBinds {
			next, _ := refNext(sorted, vb.Name)
			out = append(out, next)
		}
	case GetBulkRequest:
		nonRep := min(max(req.ErrorStatus, 0), len(req.VarBinds))
		maxRep := min(max(req.ErrorIndex, 0), limit)
		for _, vb := range req.VarBinds[:nonRep] {
			next, _ := refNext(sorted, vb.Name)
			out = append(out, next)
		}
		reps := req.VarBinds[nonRep:]
		cur := make([]OID, len(reps))
		for k, vb := range reps {
			cur[k] = vb.Name
		}
		for i := 0; i < maxRep && len(reps) > 0; i++ {
			live := false
			for k := range reps {
				vb, found := refNext(sorted, cur[k])
				out = append(out, vb)
				if found {
					cur[k], live = vb.Name, true
				}
			}
			if !live {
				break
			}
		}
	default: // nothing is settable: the varbinds come back, with genErr
		out = append(out, req.VarBinds...)
	}
	return out
}

// refAnswer is the reference agent on the wire: nil when it drops the
// request datagram (it does not decode, names another community, or its
// answer cannot be encoded), else the encoded answer. One that does not
// fit a datagram is cut as RFC 3416 §4.2.3 says: a GetBulk answer to the
// most whole rows that fit, anything else to tooBig with no varbinds.
func refAnswer(sorted []Binding, wire []byte, community string, limit int) []byte {
	req, err := Unmarshal(wire)
	if err != nil || req.Community != community {
		return nil
	}
	resp := &Message{Community: community, PDU: PDU{Type: GetResponse, RequestID: req.PDU.RequestID,
		VarBinds: refRespond(sorted, &req.PDU, limit)}}
	switch req.PDU.Type {
	case GetRequest, GetNextRequest, GetBulkRequest:
	default:
		resp.PDU.ErrorStatus = ErrStatusGenErr
	}
	b, err := resp.Marshal()
	if err != nil || len(b) <= maxDatagram {
		return b
	}
	all := resp.PDU.VarBinds
	if req.PDU.Type == GetBulkRequest {
		nonRep := min(max(req.PDU.ErrorStatus, 0), len(req.PDU.VarBinds))
		if width := len(req.PDU.VarBinds) - nonRep; width > 0 {
			for keep := len(all) - width; keep >= nonRep+width; keep -= width {
				resp.PDU.VarBinds = all[:keep]
				if b, _ := resp.Marshal(); len(b) <= maxDatagram {
					return b
				}
			}
		}
	}
	resp.PDU.ErrorStatus, resp.PDU.VarBinds = ErrStatusTooBig, nil
	b, _ = resp.Marshal()
	return b
}

// edgeSubs are the sub-identifiers names are drawn from: both sides of
// the one-, two- and three-byte base-128 boundaries and the largest.
var edgeSubs = []uint32{0, 1, 2, 127, 128, 16383, 16384, 1<<32 - 1}

// kindValue is the i-th of a cycle through every value kind a binding may
// hold, exceptions included.
func kindValue(i int) Value {
	n := int64(i)
	switch i % 12 {
	case 0:
		return Null
	case 1:
		return Int64(-n * 1000003)
	case 2:
		return Str(fmt.Sprintf("value %d", i))
	case 3:
		return OIDValue(OID{1, 3, 6, 1, uint32(i), 1<<32 - 1})
	case 4:
		return IPv4([4]byte{10, byte(i), 0, 1})
	case 5:
		return Counter(uint64(n) * 0x1234567)
	case 6:
		return Gauge(uint32(n) << 24)
	case 7:
		return Ticks(uint32(n) * 100)
	case 8:
		return Counter64Val(1<<63 + uint64(n))
	case 9:
		return NoSuchObject
	case 10:
		return Value{Kind: KindNoSuchInstance}
	}
	return Octets([]byte{})
}

// randomBindings draws n distinct names, short and over a small alphabet
// so that many are prefixes of one another, of every value kind, some
// bound to a function.
func randomBindings(rng *rand.Rand, n int) []Binding {
	seen := map[string]bool{}
	var out []Binding
	for len(out) < n {
		name := OID{1, 3}
		for k := rng.Intn(5); k > 0; k-- {
			name = append(name, edgeSubs[rng.Intn(len(edgeSubs))])
		}
		if seen[name.String()] {
			continue
		}
		seen[name.String()] = true
		val := kindValue(len(out))
		if rng.Intn(3) == 0 {
			out = append(out, Binding{Name: name, Live: func() Value { return val }})
		} else {
			out = append(out, Binding{Name: name, Value: val})
		}
	}
	return out
}

// probes are the names a table is asked about: every bound one, its
// parent, a child of it, and names bound nowhere (the empty one included).
func probes(rng *rand.Rand, binds []Binding) []OID {
	out := []OID{{}, {0}, {1, 3}, {1, 4}, {2}}
	for _, b := range binds {
		out = append(out, b.Name, b.Name[:len(b.Name)-1], b.Name.Append(edgeSubs[rng.Intn(len(edgeSubs))]))
	}
	for i := 0; i < 20; i++ {
		out = append(out, randomBindings(rng, 1)[0].Name)
	}
	return out
}

func TestTableMatchesLinearReference(t *testing.T) {
	type shape struct{ n, slots int } // slots 0: NewTable's own choice
	var shapes []shape
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 129} {
		shapes = append(shapes, shape{n: n})
	}
	for n := 0; n <= 3; n++ {
		shapes = append(shapes, shape{n: n, slots: 4}) // every probe chain collides, and wraps
	}
	for seed := int64(1); seed <= 8; seed++ {
		for _, sh := range shapes {
			rng := rand.New(rand.NewSource(seed*1000 + int64(sh.n)))
			binds := randomBindings(rng, sh.n)
			sorted := slices.Clone(binds)
			slices.SortFunc(sorted, func(a, b Binding) int { return a.Name.Cmp(b.Name) })
			var tab *Table
			if sh.slots == 0 {
				tab = NewTable(binds)
			} else {
				tab = newTable(binds, sh.slots)
			}
			name := fmt.Sprintf("seed %d, %d bindings, %d slots", seed, sh.n, len(tab.slots))
			if tab.Len() != sh.n {
				t.Fatalf("%s: Len() = %d", name, tab.Len())
			}
			for i := range sorted {
				o, v := tab.At(i)
				if o.Cmp(sorted[i].Name) != 0 || !reflect.DeepEqual(v, sorted[i].value()) {
					t.Fatalf("%s: At(%d) = %v %v, want %v %v", name, i, o, v, sorted[i].Name, sorted[i].value())
				}
			}
			asked := probes(rng, sorted)
			for _, o := range asked {
				got, ok := tab.Get(o)
				want, wantOK := refGet(sorted, o)
				if ok != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Get(%v) = %v, %v; a linear scan finds %v, %v", name, o, got, ok, want, wantOK)
				}
				if got, want := tab.Seek(o), refSeek(sorted, o); got != want {
					t.Fatalf("%s: Seek(%v) = %d, a linear scan finds %d", name, o, got, want)
				}
			}

			// Whole answers on the wire, the agent's against the reference's.
			var wireable []OID
			for _, o := range asked {
				if checkOID(o) == nil {
					wireable = append(wireable, o)
				}
			}
			a := &Agent{Community: "public", View: tab, MaxRepetitions: 1 + rng.Intn(12)}
			pick := func(k int) []VarBind {
				vbs := make([]VarBind, k)
				for i := range vbs {
					vbs[i] = VarBind{Name: wireable[rng.Intn(len(wireable))], Value: kindValue(rng.Intn(12))}
				}
				return vbs
			}
			reqs := []PDU{
				{Type: GetRequest, VarBinds: pick(24)},
				{Type: GetRequest},
				{Type: GetNextRequest, VarBinds: pick(24)},
				{Type: GetBulkRequest, ErrorStatus: 2, ErrorIndex: 5, VarBinds: pick(6)},
				{Type: GetBulkRequest, ErrorStatus: 0, ErrorIndex: 200, VarBinds: pick(3)},
				{Type: GetBulkRequest, ErrorStatus: 3, ErrorIndex: 4, VarBinds: pick(3)}, // no repeaters
				{Type: GetBulkRequest, ErrorStatus: 9, ErrorIndex: 4, VarBinds: pick(2)}, // more non-repeaters than varbinds
				{Type: GetBulkRequest, ErrorStatus: 1, ErrorIndex: 0, VarBinds: pick(4)}, // no repetitions
				{Type: GetBulkRequest, ErrorStatus: 0, ErrorIndex: 3, VarBinds: []VarBind{ // straight off the end
					{Name: OID{1, 3, 1<<32 - 1, 1<<32 - 1, 1<<32 - 1, 1<<32 - 1, 0}, Value: Null}, {Name: OID{2, 0}, Value: Null}}},
				// The clamped cases of TestGetBulkPresizeIsClamped.
				{Type: GetBulkRequest, ErrorStatus: 0, ErrorIndex: 4096, VarBinds: pick(1)},
				{Type: GetBulkRequest, ErrorStatus: -1000, ErrorIndex: 40, VarBinds: pick(2)},
				{Type: GetBulkRequest, ErrorStatus: -1 << 30, ErrorIndex: 1 << 30, VarBinds: pick(2)},
				{Type: GetBulkRequest, ErrorStatus: 0, ErrorIndex: -5, VarBinds: pick(2)},
				{Type: SetRequest, VarBinds: pick(5)},
			}
			for i := range reqs {
				reqs[i].RequestID = int32(i)
				assertAnswersAsReference(t, a, sorted, &Message{Community: "public", PDU: reqs[i]},
					fmt.Sprintf("%s: request %d (%v, non-repeaters %d, max-repetitions %d)",
						name, i, reqs[i].Type, reqs[i].ErrorStatus, reqs[i].ErrorIndex))
			}
		}
	}
}

// assertAnswersAsReference sends req through HandleBytes and holds the
// answer to the reference's, byte for byte.
func assertAnswersAsReference(t *testing.T, a *Agent, sorted []Binding, req *Message, what string) {
	t.Helper()
	wire, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	limit := a.MaxRepetitions
	if limit <= 0 {
		limit = 64
	}
	got, want := a.HandleBytes(wire), refAnswer(sorted, wire, a.Community, limit)
	if !bytes.Equal(got, want) {
		g, _ := Unmarshal(got)
		w, _ := Unmarshal(want)
		t.Fatalf("%s:\n got %x\n     %+v\nwant %x\n     %+v", what, got, g, want, w)
	}
}

// Answers that do not fit a datagram, and a value no answer can carry, on
// the wire against the reference: a GetBulk cut to its last whole row that
// fits, a GetBulk with room for no row and an oversize Get answered tooBig,
// and requests dropped because a value cannot be encoded.
func TestOversizeAnswersMatchReference(t *testing.T) {
	view, roots := wideView(t, 40, 64, 40)
	big := OID{1, 3, 6, 1, 5, 2}
	binds := slices.Clone(view.binds)
	binds = append(binds,
		Binding{Name: big.Append(1), Value: Octets(make([]byte, 40000))},
		Binding{Name: big.Append(2), Value: Octets(make([]byte, 40000))},
		Binding{Name: OID{1, 3, 6, 1, 7, 1}, Value: Value{Kind: KindIPAddress, Bytes: []byte{1, 2, 3}}},
		Binding{Name: OID{1, 3, 6, 1, 7, 2}, Live: func() Value { return Value{Kind: Kind(99)} }},
		Binding{Name: OID{1, 3, 6, 1, 7, 3}, Value: Str("after the unencodable")},
	)
	tab := NewTable(binds)
	sorted := slices.Clone(tab.binds)
	a := &Agent{Community: "public", View: tab}
	columns := func(nonRep int, maxRep int, names ...OID) *Message {
		m := &Message{Community: "public", PDU: PDU{Type: GetBulkRequest, RequestID: 9, ErrorStatus: nonRep, ErrorIndex: maxRep}}
		for _, o := range names {
			m.PDU.VarBinds = append(m.PDU.VarBinds, VarBind{Name: o, Value: Null})
		}
		return m
	}
	get := func(names ...OID) *Message {
		m := columns(0, 0, names...)
		m.PDU.Type = GetRequest
		return m
	}
	for _, c := range []struct {
		what    string
		req     *Message
		outcome string // "cut", "tooBig" or "drop"
	}{
		{"GetBulk of 40 columns x 64 rows", columns(0, 64, roots...), "cut"},
		{"GetBulk with a non-repeater, 40 x 64", columns(1, 64, append([]OID{big}, roots...)...), "cut"},
		{"GetBulk whose first row does not fit", columns(0, 1, big, big), "tooBig"},
		{"GetBulk of non-repeaters only", columns(2, 4, big, big), "tooBig"},
		{"Get of two 40 kB strings", get(big.Append(1), big.Append(2)), "tooBig"},
		{"Get of a malformed IpAddress", get(OID{1, 3, 6, 1, 7, 1}), "drop"},
		{"Get of a live value of no kind", get(OID{1, 3, 6, 1, 7, 2}), "drop"},
		{"GetNext onto a malformed IpAddress", &Message{Community: "public", PDU: PDU{Type: GetNextRequest,
			VarBinds: []VarBind{{Name: OID{1, 3, 6, 1, 7}, Value: Null}}}}, "drop"},
	} {
		assertAnswersAsReference(t, a, sorted, c.req, c.what)
		wire, _ := c.req.Marshal()
		got := a.HandleBytes(wire)
		if c.outcome == "drop" {
			if got != nil {
				t.Errorf("%s: answered, want dropped", c.what)
			}
			continue
		}
		resp, err := Unmarshal(got)
		if err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		if tooBig := resp.PDU.ErrorStatus == ErrStatusTooBig; tooBig != (c.outcome == "tooBig") || len(got) > maxDatagram ||
			(c.outcome == "cut" && len(resp.PDU.VarBinds) == 0) {
			t.Errorf("%s: %d B, error status %d, %d varbinds; want %s", c.what, len(got), resp.PDU.ErrorStatus,
				len(resp.PDU.VarBinds), c.outcome)
		}
	}
}
