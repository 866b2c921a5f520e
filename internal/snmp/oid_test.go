package snmp

import (
	"slices"
	"testing"
)

// The OID arithmetic the collectors lean on, case by case: a column
// prefix against the row OIDs under it, what is left after the prefix (the
// row's index), the empty OID, and prefixes longer than what they are
// held against.
func TestOIDPrefixAndRemainder(t *testing.T) {
	O := func(sub ...uint32) OID { return OID(sub) }
	cases := []struct {
		name      string
		full, pre OID
		has       bool
		remainder OID // full[len(pre):] when has
	}{
		{"row under its column", O(1, 3, 6, 1, 2, 1, 2, 2, 1, 10, 3), O(1, 3, 6, 1, 2, 1, 2, 2, 1, 10), true, O(3)},
		{"multi-part index", O(1, 3, 6, 1, 2, 1, 4, 22, 1, 2, 7, 10, 0, 16, 9), O(1, 3, 6, 1, 2, 1, 4, 22, 1, 2), true, O(7, 10, 0, 16, 9)},
		{"equal", O(1, 2, 3, 4), O(1, 2, 3, 4), true, O()},
		{"overlong prefix", O(1, 2, 3, 4), O(1, 2, 3, 4, 5, 6), false, nil},
		{"sibling column", O(1, 3, 6, 1, 2, 1, 2, 2, 1, 16, 3), O(1, 3, 6, 1, 2, 1, 2, 2, 1, 10), false, nil},
		{"differs in the last place", O(1, 2, 3, 5), O(1, 2, 3, 4), false, nil},
		{"empty prefix", O(1, 2, 3), O(), true, O(1, 2, 3)},
		{"nil prefix", O(1, 2, 3), nil, true, O(1, 2, 3)},
		{"empty against empty", O(), O(), true, O()},
		{"empty against something", O(), O(1), false, nil},
		{"large sub-identifiers", O(1, 3, 4294967295, 7), O(1, 3, 4294967295), true, O(7)},
	}
	for _, c := range cases {
		if got := c.full.HasPrefix(c.pre); got != c.has {
			t.Errorf("%s: %v.HasPrefix(%v) = %v, want %v", c.name, c.full, c.pre, got, c.has)
			continue
		}
		if !c.has {
			continue
		}
		rem := c.full[len(c.pre):]
		if !slices.Equal(rem, c.remainder) {
			t.Errorf("%s: remainder %v, want %v", c.name, rem, c.remainder)
		}
		// Prefix and remainder put back together are the OID again, through
		// either way of appending.
		var arena OIDArena
		for how, back := range map[string]OID{"Append": c.pre.Append(rem...), "OIDArena.Append": arena.Append(c.pre, rem...)} {
			if back.Cmp(c.full) != 0 {
				t.Errorf("%s: %s(prefix, remainder) = %v, want %v", c.name, how, back, c.full)
			}
		}
	}
}

func TestOIDAppendCases(t *testing.T) {
	O := func(sub ...uint32) OID { return OID(sub) }
	cases := []struct{ root, partial, want OID }{
		{O(1), O(2), O(1, 2)},
		{O(1, 2, 3, 4, 5), O(6, 7), O(1, 2, 3, 4, 5, 6, 7)},
		{O(1, 2, 3, 4, 5), O(), O(1, 2, 3, 4, 5)},
		{O(), O(1, 2, 3, 4, 5), O(1, 2, 3, 4, 5)},
		{O(), O(), O()},
	}
	arena := make(OIDArena, 0, 4) // smaller than the cases need: it must grow
	var carved []OID
	for _, c := range cases {
		if got := c.root.Append(c.partial...); !slices.Equal(got, c.want) {
			t.Errorf("%v.Append(%v) = %v, want %v", c.root, c.partial, got, c.want)
		}
		carved = append(carved, arena.Append(c.root, c.partial...))
	}
	// Growing the arena must leave the OIDs carved before intact, and
	// appending to one must not write into the next.
	for i, c := range cases {
		if !slices.Equal(carved[i], c.want) {
			t.Errorf("arena OID %d = %v, want %v", i, carved[i], c.want)
		}
		if cap(carved[i]) != len(carved[i]) {
			t.Errorf("arena OID %d has spare capacity %d: an append could reach its neighbour", i, cap(carved[i])-len(carved[i]))
		}
	}
	_ = append(carved[1], 99)
	if !slices.Equal(carved[2], cases[2].want) {
		t.Errorf("append to one arena OID changed the next: %v", carved[2])
	}
}

func TestParseOIDCases(t *testing.T) {
	cases := []struct {
		in   string
		want OID // nil: must not parse
	}{
		{"1.3.6.1.4.1.898889", OID{1, 3, 6, 1, 4, 1, 898889}},
		{".1.3.6.1.4.1.898889", OID{1, 3, 6, 1, 4, 1, 898889}},
		{"0", OID{0}},
		{"1.3.4294967295", OID{1, 3, 4294967295}},
		{"1.3.4294967296", nil}, // a sub-identifier past 32 bits
		{"1.3.99999999999999999999", nil},
		{"", nil},
		{".", nil},
		{"..1", nil},
		{"1..3", nil},
		{"1.3.", nil},
		{"1.-3", nil},
		{"1.3 ", nil},
	}
	for _, c := range cases {
		got, err := ParseOID(c.in)
		if c.want == nil {
			if err == nil {
				t.Errorf("ParseOID(%q) = %v, want an error", c.in, got)
			}
			continue
		}
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("ParseOID(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}
