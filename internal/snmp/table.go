package snmp

import "slices"

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

// Table is an immutable MIB layout: bindings sorted by name once, and an
// open-addressed index over a hash of the name for exact-match reads. It
// is built whole and never written again, so any number of requests read
// it without a lock, and the names it hands out may be retained. An agent
// answers one request from one Table: a Get is a probe per varbind, a
// GetBulk one Seek per repeater and a step along the sorted bindings per
// row.
type Table struct {
	binds []Binding // sorted by Name, names distinct
	slots []uint64  // hash tag<<32 | position+1; 0 is an empty slot
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
	mask := uint64(slots - 1)
	for pos := range t.binds {
		h := hashOID(t.binds[pos].Name)
		i := h & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = h&^tagShift | uint64(pos+1)
	}
	return t
}

// tagShift masks a slot's position half; the other half is the hash tag.
const tagShift = 1<<32 - 1

// hashOID hashes every sub-identifier, folding the high half into the low
// so the slot number (low bits) and the tag (high bits) both depend on all
// of them.
func hashOID(o OID) uint64 {
	h := uint64(len(o))
	for _, v := range o {
		h = (h ^ uint64(v)) * 0x9E3779B97F4A7C15
	}
	return h ^ h>>32
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

// Get returns the value bound to exactly oid.
func (t *Table) Get(oid OID) (Value, bool) {
	h := hashOID(oid)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return Value{}, false
		}
		if (s^h)&^tagShift != 0 {
			continue
		}
		if b := &t.binds[s&tagShift-1]; slices.Equal(b.Name, oid) {
			return b.value(), true
		}
	}
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
