package collector

import (
	"testing"
	"testing/quick"
	"time"

	"remos/internal/snmp"
	"remos/internal/topology"
)

func sample(i int) Sample {
	return Sample{T: time.Unix(int64(i), 0), Bits: float64(i)}
}

func TestHistoryAddGetLatest(t *testing.T) {
	h := NewHistory(8)
	k := HistKey{From: "a", To: "b"}
	if _, ok := h.Latest(k); ok {
		t.Fatal("empty history has a latest sample")
	}
	for i := 0; i < 5; i++ {
		h.Add(k, sample(i))
	}
	got := h.Get(k)
	if len(got) != 5 || got[0].Bits != 0 || got[4].Bits != 4 {
		t.Fatalf("Get = %v", got)
	}
	last, ok := h.Latest(k)
	if !ok || last.Bits != 4 {
		t.Fatalf("Latest = %v ok=%v", last, ok)
	}
}

func TestHistoryEvictsOldest(t *testing.T) {
	h := NewHistory(4)
	k := HistKey{From: "a", To: "b"}
	for i := 0; i < 10; i++ {
		h.Add(k, sample(i))
	}
	got := h.Get(k)
	if len(got) != 4 {
		t.Fatalf("kept %d samples, want 4", len(got))
	}
	if got[0].Bits != 6 || got[3].Bits != 9 {
		t.Fatalf("evicted wrong end: %v", got)
	}
}

func TestHistoryKeysSortedAndIndependent(t *testing.T) {
	h := NewHistory(0) // default capacity
	h.Add(HistKey{From: "z", To: "a"}, sample(1))
	h.Add(HistKey{From: "a", To: "z"}, sample(2))
	h.Add(HistKey{From: "a", To: "b"}, sample(3))
	keys := h.Keys()
	if len(keys) != 3 {
		t.Fatalf("keys = %v", keys)
	}
	if keys[0] != (HistKey{From: "a", To: "b"}) || keys[2] != (HistKey{From: "z", To: "a"}) {
		t.Fatalf("keys unsorted: %v", keys)
	}
	if len(h.Get(HistKey{From: "a", To: "b"})) != 1 {
		t.Fatal("keys bleed into each other")
	}
}

func TestHistorySnapshotIsACopy(t *testing.T) {
	h := NewHistory(8)
	k := HistKey{From: "a", To: "b"}
	h.Add(k, sample(1))
	snap := h.Snapshot()
	snap[k][0].Bits = 999
	if h.Get(k)[0].Bits == 999 {
		t.Fatal("snapshot aliases the store")
	}
	// Get is a copy too.
	g := h.Get(k)
	g[0].Bits = 888
	if h.Get(k)[0].Bits == 888 {
		t.Fatal("Get aliases the store")
	}
}

func TestValues(t *testing.T) {
	vs := Values([]Sample{sample(3), sample(7)})
	if len(vs) != 2 || vs[0] != 3 || vs[1] != 7 {
		t.Fatalf("Values = %v", vs)
	}
}

func TestMACStringAndOID(t *testing.T) {
	m := MAC{0x02, 0x00, 0xab, 0xcd, 0xef, 0x01}
	if m.String() != "02:00:ab:cd:ef:01" {
		t.Fatalf("String = %s", m.String())
	}
	suffix := m.OIDSuffix()
	oid := snmp.MustParseOID("1.3.6.1.2.1.17.4.3.1.2").Append(suffix...)
	back, ok := MACFromOID(oid)
	if !ok || back != m {
		t.Fatalf("MACFromOID = %v ok=%v", back, ok)
	}
	if _, ok := MACFromOID(snmp.MustParseOID("1.3")); ok {
		t.Fatal("short OID produced a MAC")
	}
	if _, ok := MACFromOID(snmp.MustParseOID("1.3.6.1.2.1.300.1.2.3.4.5")); ok {
		t.Fatal("out-of-range component produced a MAC")
	}
}

func TestMACFromBytes(t *testing.T) {
	m, ok := MACFromBytes([]byte{1, 2, 3, 4, 5, 6})
	if !ok || m != (MAC{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("MACFromBytes = %v ok=%v", m, ok)
	}
	if _, ok := MACFromBytes([]byte{1, 2, 3}); ok {
		t.Fatal("short byte slice produced a MAC")
	}
}

// Property: a MAC survives the OID suffix round trip.
func TestPropertyMACOIDRoundTrip(t *testing.T) {
	f := func(b [6]byte) bool {
		m := MAC(b)
		oid := snmp.OID{1, 3, 6}.Append(m.OIDSuffix()...)
		back, ok := MACFromOID(oid)
		return ok && back == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: history never exceeds capacity and Latest equals the last Add.
func TestPropertyHistoryBounded(t *testing.T) {
	f := func(adds []float64) bool {
		h := NewHistory(16)
		k := HistKey{From: "x", To: "y"}
		for i, v := range adds {
			h.Add(k, Sample{T: time.Unix(int64(i), 0), Bits: v})
		}
		got := h.Get(k)
		if len(got) > 16 {
			return false
		}
		if len(adds) > 0 {
			last, ok := h.Latest(k)
			if !ok || last.Bits != adds[len(adds)-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// pairGraph joins hosts a and b by the given links, each [utilFromTo,
// utilToFrom] on a 10 Mb/s link from a to b.
func pairGraph(links ...[2]float64) *topology.Graph {
	g := topology.NewGraph()
	g.AddNode(topology.Node{ID: "a", Kind: topology.HostNode, Addr: "a"})
	g.AddNode(topology.Node{ID: "b", Kind: topology.HostNode, Addr: "b"})
	for _, u := range links {
		g.AddLink(topology.Link{From: "a", To: "b", Capacity: 10e6, UtilFromTo: u[0], UtilToFrom: u[1]})
	}
	return g
}

// A lone sub-result is the answer, trimmed to what the query asked for.
func TestMergeResultsHandsUpALoneResult(t *testing.T) {
	k := HistKey{From: "a", To: "b"}
	sub := func() *Result {
		return &Result{
			Graph:       pairGraph([2]float64{1e6, 2e6}),
			History:     map[HistKey][]Sample{k: {sample(1)}},
			Predictions: map[HistKey]Forecast{k: {Values: []float64{1}}},
		}
	}
	in := sub()
	out := MergeResults([]*Result{in}, Query{})
	if out != in {
		t.Fatal("a lone sub-result was copied")
	}
	if out.History != nil || out.Predictions != nil {
		t.Fatalf("unasked history %v / predictions %v came back", out.History, out.Predictions)
	}
	out = MergeResults([]*Result{sub()}, Query{WithHistory: true, WithPredictions: true})
	if len(out.History[k]) != 1 || len(out.Predictions[k].Values) != 1 {
		t.Fatalf("asked-for history %v / predictions %v were dropped", out.History, out.Predictions)
	}
}

// A lone sub-result with parallel links is merged, which folds them.
func TestMergeResultsFoldsALoneResultsParallelLinks(t *testing.T) {
	in := &Result{Graph: pairGraph([2]float64{1e6, 5e6}, [2]float64{3e6, 2e6})}
	out := MergeResults([]*Result{in}, Query{})
	if out == in {
		t.Fatal("a sub-result with parallel links was handed up unmerged")
	}
	links := out.Graph.Links()
	if len(links) != 1 || links[0].UtilFromTo != 3e6 || links[0].UtilToFrom != 5e6 {
		t.Fatalf("merged links = %v, want one carrying the larger readings 3e6/5e6", links)
	}
}
