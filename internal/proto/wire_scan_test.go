package proto

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

// addrTexts are address texts at the edges of what the wire's address
// parsers take.
var addrTexts = []string{"", ".", "1.2.3.4", "0.0.0.0", "255.255.255.255", "256.1.1.1", "1.2.3.256", "1.2.3.1000",
	"01.2.3.4", "1.2.3.04", "00.1.2.3", "1.2.3", "1.2.3.4.5", "1..2.3", ".1.2.3", "1.2.3.", "1.2.3.4 ", "1.2.3.4%eth0",
	"::ffff:1.2.3.4", "::1", "fe80::1%eth0", "2001:db8::", "not-an-address"}

// TestDottedQuadMatchesParseAddr: the allocation-free address path takes
// exactly the texts netip.ParseAddr reads as IPv4, to the same address.
func TestDottedQuadMatchesParseAddr(t *testing.T) {
	texts := slices.Clone(addrTexts)
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		b := make([]byte, rnd.Intn(16))
		for j := range b {
			b[j] = "0123456789..."[rnd.Intn(13)]
		}
		texts = append(texts, string(b))
	}
	for _, text := range texts {
		quad, ok := dottedQuad([]byte(text))
		want, err := netip.ParseAddr(text)
		if ok != (err == nil && want.Is4()) || (ok && netip.AddrFrom4(quad) != want) {
			t.Fatalf("dottedQuad(%q) = %v, %t; ParseAddr: %v, %v", text, quad, ok, want, err)
		}
	}
}

// FuzzWireAddr holds the one address parser of the ASCII lines and the
// XML documents to netip.ParseAddr: for any text, attrAddr accepts what
// ParseAddr accepts, as the same address, and refuses the rest.
func FuzzWireAddr(f *testing.F) {
	for _, text := range addrTexts {
		f.Add([]byte(text))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, ok := attrAddr(b)
		want, err := netip.ParseAddr(string(b))
		if ok != (err == nil) || got != want {
			t.Fatalf("attrAddr(%q) = %v, %t; ParseAddr: %v, %v", b, got, ok, want, err)
		}
	})
}
