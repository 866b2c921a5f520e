package topology

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fmtEncodeText is EncodeText as it was written with fmt, kept as the
// reference the append encoder is pinned to byte for byte.
func fmtEncodeText(g *Graph, w io.Writer) error {
	bw := bufio.NewWriter(w)
	nodes := g.Nodes()
	fmt.Fprintf(bw, "GRAPH %d %d\n", len(nodes), len(g.links))
	for _, n := range nodes {
		addr := n.Addr
		if addr == "" {
			addr = "-"
		}
		fmt.Fprintf(bw, "NODE %s %s %s\n", n.ID, n.Kind, addr)
	}
	for _, l := range g.links {
		fmt.Fprintf(bw, "LINK %s %s %g %g %g %d %d\n",
			l.From, l.To, l.Capacity, l.UtilFromTo, l.UtilToFrom,
			l.Latency.Nanoseconds(), l.Jitter.Nanoseconds())
	}
	fmt.Fprintln(bw, "END")
	return bw.Flush()
}

func TestEncodeTextMatchesFmt(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e6, 1e7, 1e20, 1e21, 1e-4, 1e-5, 1e-7,
		123456789, 1234567.5, 100e6, 1e9, 2.5e9, 1.0 / 3, math.Pi * 1e8,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.MaxInt64, 4294967295, 4294967296,
	}
	durations := []time.Duration{0, 1, -1, time.Millisecond, 5 * time.Second, math.MaxInt64, math.MinInt64}
	g := NewGraph()
	g.AddNode(Node{ID: "a", Kind: HostNode, Addr: "10.0.0.1"})
	g.AddNode(Node{ID: "b", Kind: RouterNode})
	g.AddNode(Node{ID: "sw:é", Kind: SwitchNode, Addr: "fe80::1%eth0"})
	g.AddNode(Node{ID: "v", Kind: VirtualNode})
	g.AddNode(Node{ID: "odd", Kind: NodeKind(7)})
	g.AddNode(Node{ID: "neg", Kind: NodeKind(-1)})
	for i, f := range floats {
		g.AddLink(Link{
			From: "a", To: "b", Capacity: f,
			UtilFromTo: floats[(i+1)%len(floats)], UtilToFrom: floats[(i+2)%len(floats)],
			Latency: durations[i%len(durations)], Jitter: durations[(i+3)%len(durations)],
		})
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		g.AddLink(Link{
			From: "sw:é", To: "v",
			Capacity:   math.Float64frombits(rng.Uint64()),
			UtilFromTo: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)),
			UtilToFrom: float64(rng.Int63n(1e12)),
			Latency:    time.Duration(rng.Int63()), Jitter: -time.Duration(rng.Int63()),
		})
	}
	for name, g := range map[string]*Graph{"edge cases": g, "empty": NewGraph(), "cold reply": coldReply()} {
		var got, want bytes.Buffer
		if err := g.EncodeText(&got); err != nil {
			t.Fatal(err)
		}
		if err := fmtEncodeText(g, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
			for i := range wl {
				if i >= len(gl) || gl[i] != wl[i] {
					t.Fatalf("%s: line %d differs:\n got %q\nwant %q", name, i+1, gl[min(i, len(gl)-1)], wl[i])
				}
			}
			t.Fatalf("%s: %d lines encoded, fmt writes %d", name, len(gl), len(wl))
		}
	}
}

// The header's counts are the peer's word: negative ones are refused, and
// absurd ones cost a failed read, not the memory they name.
func TestDecodeTextDistrustsHeaderCounts(t *testing.T) {
	for _, in := range []string{
		"GRAPH -1 -1\nEND\n",
		"GRAPH -1 0\nEND\n",
		"GRAPH 0 -1\nEND\n",
		"GRAPH 0 -9223372036854775808\nEND\n",
	} {
		if g, err := DecodeText(strings.NewReader(in)); err == nil {
			t.Errorf("%q decoded to a graph of %d nodes", in, len(g.Nodes()))
		}
	}
	for _, in := range []string{
		"GRAPH 2000000000 0\nEND\n",
		"GRAPH 0 2000000000\nEND\n",
		"GRAPH 2000000000 2000000000\nNODE a host -\n",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeText(strings.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%q decoded", in)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
			t.Errorf("refusing %q allocated %d bytes", in, grown)
		}
	}
}

// AppendText appends after what dst holds, and on error hands dst back as
// it was.
func TestAppendText(t *testing.T) {
	g := coldReply()
	var want bytes.Buffer
	if err := g.EncodeText(&want); err != nil {
		t.Fatal(err)
	}
	got, err := g.AppendText([]byte("OK\n"))
	if err != nil || string(got) != "OK\n"+want.String() {
		t.Fatalf("AppendText after %q = %q, %v", "OK\n", got, err)
	}
	g.AddNode(Node{ID: "bad id", Kind: HostNode})
	dst := []byte("OK\n")
	if got, err := g.AppendText(dst); err == nil || string(got) != "OK\n" {
		t.Fatalf("AppendText of a node ID with a space = %q, %v; want an error and dst unchanged", got, err)
	}
}

func TestTextCodecAllocationBudget(t *testing.T) {
	g := coldReply()
	var buf bytes.Buffer
	if err := g.EncodeText(&buf); err != nil {
		t.Fatal(err)
	}
	// The sorted node list and the one buffer the text is appended into.
	if n := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := g.EncodeText(&buf); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("EncodeText allocates %.0f times, want <= 2", n)
	}
	// Appended into a buffer with room, the text costs only the sorted
	// node list, and it is the text EncodeText writes.
	dst := make([]byte, 0, 2*buf.Len())
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if dst, err = g.AppendText(dst[:0]); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("AppendText into a buffer with room allocates %.0f times, want <= 1", n)
	}
	if !bytes.Equal(dst, buf.Bytes()) {
		t.Fatalf("AppendText appends\n%s\nEncodeText writes\n%s", dst, buf.Bytes())
	}
	// Decoding makes the strings the graph keeps (an ID per node, and an
	// address where it is not the ID again) and a fixed number of tables,
	// slabs and buffers: nothing per link, nothing per field.
	text := buf.Bytes()
	budget := float64(len(g.Nodes()) + 28)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeText(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	}); n > budget {
		t.Fatalf("DecodeText allocates %.0f times for %d nodes and %d links, want <= %.0f",
			n, len(g.Nodes()), len(g.Links()), budget)
	}
}

// BenchmarkGraphTextCodec measures the ASCII graph codec on a graph of the
// shape a cold campus query ships.
func BenchmarkGraphTextCodec(b *testing.B) {
	g := coldReply()
	var buf bytes.Buffer
	if err := g.EncodeText(&buf); err != nil {
		b.Fatal(err)
	}
	text := bytes.Clone(buf.Bytes())
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(text)))
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := g.EncodeText(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(text)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeText(bytes.NewReader(text)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// graphBlocks cuts the GRAPH ... END blocks out of a recorded ASCII reply.
func graphBlocks(reply []byte) [][]byte {
	var blocks [][]byte
	for {
		start := bytes.Index(reply, []byte("GRAPH "))
		if start < 0 || (start > 0 && reply[start-1] != '\n') {
			return blocks
		}
		end := bytes.Index(reply[start:], []byte("\nEND\n"))
		if end < 0 {
			return blocks
		}
		end += start + len("\nEND\n")
		blocks = append(blocks, reply[start:end])
		reply = reply[end:]
	}
}

// FuzzDecodeText drives the ASCII graph decoder — what a client, or a
// federation router, reads from a peer daemon — with arbitrary bytes. It
// must never panic, and whatever it accepts must re-encode and decode to
// the same graph. Seeds are the graph blocks of the recorded ASCII reply
// transcripts.
func FuzzDecodeText(f *testing.F) {
	outs, err := filepath.Glob(filepath.Join("..", "proto", "testdata", "transcripts", "ascii", "*.out"))
	if err != nil {
		f.Fatal(err)
	}
	seeded := 0
	for _, path := range outs {
		reply, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, block := range graphBlocks(reply) {
			f.Add(block)
			seeded++
		}
	}
	if seeded == 0 {
		f.Fatal("no graph block found in the ASCII reply transcripts")
	}
	var cold bytes.Buffer
	if err := coldReply().EncodeText(&cold); err != nil {
		f.Fatal(err)
	}
	f.Add(cold.Bytes())
	f.Add([]byte("GRAPH -1 -1\nEND\n"))
	f.Add([]byte("GRAPH 2000000000 0\nEND\n"))
	f.Add([]byte("GRAPH 2 2\nNODE a host a\nNODE a router -\nLINK a a NaN -Inf 1e-7 -5\nLINK a a 0x1p-2 +Inf -0 7 9\nEND\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		g, err := DecodeText(bytes.NewReader(b))
		if err != nil {
			return
		}
		var text bytes.Buffer
		if err := g.EncodeText(&text); err != nil {
			t.Fatalf("a decoded graph failed to encode: %v", err)
		}
		again, err := DecodeText(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatalf("a re-encoded graph failed to decode: %v\n%s", err, text.Bytes())
		}
		// Equal as the wire sees it (NaN readings included, which no ==
		// on the structs would call equal), and in what the index holds.
		var text2 bytes.Buffer
		if err := again.EncodeText(&text2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(text.Bytes(), text2.Bytes()) {
			t.Fatalf("decode(encode(g)) != g:\n%s\nvs\n%s", text.Bytes(), text2.Bytes())
		}
		for _, n := range g.Nodes() {
			twin := again.Node(n.ID)
			if twin == nil || *twin != *n {
				t.Fatalf("node %+v came back as %+v", n, twin)
			}
			if (g.NodeByAddr(n.Addr) == n) != (again.NodeByAddr(n.Addr) == twin) {
				t.Fatalf("address %q binds differently after a round trip", n.Addr)
			}
		}
	})
}
