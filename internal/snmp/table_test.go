package snmp

import (
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

func refNext(sorted []Binding, name OID) VarBind {
	if i := refSeek(sorted, name); i < len(sorted) {
		return VarBind{Name: sorted[i].Name, Value: sorted[i].value()}
	}
	return VarBind{Name: name, Value: EndOfMibView}
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
			out = append(out, refNext(sorted, vb.Name))
		}
	case GetBulkRequest:
		nonRep := min(max(req.ErrorStatus, 0), len(req.VarBinds))
		maxRep := min(max(req.ErrorIndex, 0), limit)
		for _, vb := range req.VarBinds[:nonRep] {
			out = append(out, refNext(sorted, vb.Name))
		}
		reps := req.VarBinds[nonRep:]
		cur := make([]OID, len(reps))
		for k, vb := range reps {
			cur[k] = vb.Name
		}
		for i := 0; i < maxRep && len(reps) > 0; i++ {
			live := false
			for k := range reps {
				vb := refNext(sorted, cur[k])
				out = append(out, vb)
				if vb.Value.Kind != KindEndOfMibView {
					cur[k], live = vb.Name, true
				}
			}
			if !live {
				break
			}
		}
	}
	return out
}

// edgeSubs are the sub-identifiers names are drawn from: both sides of
// the one-, two- and three-byte base-128 boundaries and the largest.
var edgeSubs = []uint32{0, 1, 2, 127, 128, 16383, 16384, 1<<32 - 1}

// randomBindings draws n distinct names, short and over a small alphabet
// so that many are prefixes of one another, some bound to a function.
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
		val := Int64(int64(len(out)))
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

			// Whole responses through the agent, against the reference.
			a := &Agent{Community: "public", View: tab, MaxRepetitions: 1 + rng.Intn(12)}
			pick := func(k int) []VarBind {
				vbs := make([]VarBind, k)
				for i := range vbs {
					vbs[i] = VarBind{Name: asked[rng.Intn(len(asked))], Value: Null}
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
					{Name: OID{1, 3, 1<<32 - 1, 1<<32 - 1, 1<<32 - 1, 1<<32 - 1, 0}, Value: Null}, {Name: OID{2}, Value: Null}}},
				// The clamped cases of TestGetBulkPresizeIsClamped.
				{Type: GetBulkRequest, ErrorStatus: 0, ErrorIndex: 4096, VarBinds: pick(1)},
				{Type: GetBulkRequest, ErrorStatus: -1000, ErrorIndex: 40, VarBinds: pick(2)},
				{Type: GetBulkRequest, ErrorStatus: -1 << 30, ErrorIndex: 1 << 30, VarBinds: pick(2)},
				{Type: GetBulkRequest, ErrorStatus: 0, ErrorIndex: -5, VarBinds: pick(2)},
			}
			for i := range reqs {
				reqs[i].RequestID = int32(i)
				resp := a.Handle(&Message{Community: "public", PDU: reqs[i]})
				want := refRespond(sorted, &reqs[i], a.MaxRepetitions)
				if resp.PDU.Type != GetResponse || resp.PDU.RequestID != int32(i) || resp.PDU.ErrorStatus != 0 {
					t.Fatalf("%s: request %d answered with header %+v", name, i, resp.PDU)
				}
				if got := resp.PDU.VarBinds; !reflect.DeepEqual(append([]VarBind{}, got...), want) {
					t.Fatalf("%s: request %d (%v, non-repeaters %d, max-repetitions %d):\n got %v\nwant %v",
						name, i, reqs[i].Type, reqs[i].ErrorStatus, reqs[i].ErrorIndex, got, want)
				}
			}
		}
	}
}
