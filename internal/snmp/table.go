package snmp

import (
	"encoding/binary"
	"slices"
)

// Binding is one bound object of a Table: its name, and either a fixed
// Value or, when Live is set, a function evaluated on every read (a
// counter, an uptime).
type Binding struct {
	Name  OID
	Value Value
	Live  func() Value
}

func (b *Binding) value() Value {
	if b.Live != nil {
		return b.Live()
	}
	return b.Value
}

// Table is an immutable MIB layout: bindings sorted by name once, each
// name encoded once and each fixed value's TLV encoded once, and an
// open-addressed index over a hash of the encoded name for exact-match
// reads. It is built whole and never written again, so any number of
// requests read it without a lock, and the names it hands out may be
// retained. An agent answers one request from one Table: a Get is a probe
// per varbind by the name's bytes, a GetBulk one Seek per repeater and a
// step along the sorted bindings per row, and every response row copies
// the bytes laid out here.
type Table struct {
	binds []Binding // sorted by Name, names distinct
	// enc holds, per binding in order, its name body and then its value's
	// TLV; offs[2i], offs[2i+1] and offs[2i+2] bound binding i's two. A
	// name that cannot be encoded is empty and out of the index; a value
	// is empty when it is live, or cannot be encoded, and is encoded when
	// it is read.
	enc   []byte
	offs  []uint32
	slots []uint64 // hash tag<<32 | position+1; 0 is an empty slot
}

// StaticView is a MIBView over a fixed set of bindings, for tests and for
// agents whose contents change rarely (rebuild and swap): a Table serving
// itself.
type StaticView = Table

// NewTable lays the bindings out, copying them; of bindings sharing a name
// one is kept.
func NewTable(binds []Binding) *Table {
	slots := 2
	for slots < 2*len(binds) {
		slots *= 2
	}
	return newTable(binds, slots)
}

// encGuess is the bytes of name and value a binding is laid out in before
// the arena grows: a MIB-2 column instance and a small value.
const encGuess = 24

// newTable is NewTable with the index size given: a power of two greater
// than the number of bindings.
func newTable(binds []Binding, slots int) *Table {
	// The order is sorted, not the bindings: a binding is twelve words to
	// move, and each is then copied once, into a slice of the final size.
	order := make([]int32, len(binds))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return binds[a].Name.Cmp(binds[b].Name) })
	t := &Table{binds: make([]Binding, 0, len(binds)), slots: make([]uint64, slots)}
	for _, i := range order {
		if n := len(t.binds); n == 0 || !slices.Equal(t.binds[n-1].Name, binds[i].Name) {
			t.binds = append(t.binds, binds[i])
		}
	}
	t.enc = make([]byte, 0, encGuess*len(t.binds))
	t.offs = make([]uint32, 1, 2*len(t.binds)+1)
	mask := uint64(slots - 1)
	for pos := range t.binds {
		b := &t.binds[pos]
		start := len(t.enc)
		if checkOID(b.Name) == nil {
			t.enc = appendOIDBody(t.enc, b.Name)
			h := hashName(t.enc[start:])
			i := h & mask
			for t.slots[i] != 0 {
				i = (i + 1) & mask
			}
			t.slots[i] = h&^tagShift | uint64(pos+1)
		}
		t.offs = append(t.offs, uint32(len(t.enc)))
		if b.Live == nil {
			if _, err := sizeValue(b.Value); err == nil {
				t.enc = appendValue(t.enc, b.Value)
			}
		}
		t.offs = append(t.offs, uint32(len(t.enc)))
	}
	return t
}

// tagShift masks a slot's position half; the other half is the hash tag.
const tagShift = 1<<32 - 1

// hashName hashes an encoded name eight bytes at a time, then mixes the
// result so the slot number (low bits) and the tag (high bits) both depend
// on every byte.
func hashName(b []byte) uint64 {
	h := uint64(len(b))
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * 0x9E3779B97F4A7C15
	}
	var tail uint64
	for i, c := range b {
		tail |= uint64(c) << (8 * i)
	}
	h = (h ^ tail) * 0x9E3779B97F4A7C15
	h ^= h >> 32
	h *= 0xC4CEB9FE1A85EC53
	return h ^ h>>29
}

// NewStaticView builds a view from OID-string keyed values.
func NewStaticView(binds map[string]Value) (*StaticView, error) {
	bs := make([]Binding, 0, len(binds))
	for k, val := range binds {
		o, err := ParseOID(k)
		if err != nil {
			return nil, err
		}
		bs = append(bs, Binding{Name: o, Value: val})
	}
	return NewTable(bs), nil
}

// Table implements MIBView: a Table is the layout of every request.
func (t *Table) Table() *Table { return t }

// Len is the number of bindings.
func (t *Table) Len() int { return len(t.binds) }

// find returns the position of the binding whose encoded name is name.
func (t *Table) find(name []byte) (int, bool) {
	h := hashName(name)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return 0, false
		}
		if (s^h)&^tagShift != 0 {
			continue
		}
		if pos := int(s&tagShift) - 1; string(t.name(pos)) == string(name) {
			return pos, true
		}
	}
}

// Get returns the value bound to exactly oid.
func (t *Table) Get(oid OID) (Value, bool) {
	if checkOID(oid) != nil {
		return Value{}, false // no binding the index holds has this name
	}
	var buf [64]byte
	pos, ok := t.find(appendOIDBody(buf[:0], oid))
	if !ok {
		return Value{}, false
	}
	return t.binds[pos].value(), true
}

// name returns binding i's encoded name body, empty when it has none.
func (t *Table) name(i int) []byte {
	return t.enc[t.offs[2*i]:t.offs[2*i+1]:t.offs[2*i+1]]
}

// fixed returns binding i's value TLV as laid out, empty when the value is
// encoded on each read.
func (t *Table) fixed(i int) []byte {
	return t.enc[t.offs[2*i+1]:t.offs[2*i+2]:t.offs[2*i+2]]
}

// Seek returns the position of the first binding named strictly after
// oid, Len() when there is none.
func (t *Table) Seek(oid OID) int {
	lo, hi := 0, len(t.binds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.binds[mid].Name.Cmp(oid) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// At returns the binding at position i, 0 <= i < Len(), in name order.
func (t *Table) At(i int) (OID, Value) {
	b := &t.binds[i]
	return b.Name, b.value()
}
