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
	"slices"
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

// builtFrom is the graph the AddNode and AddLink calls of the ASCII
// form's lines build, one call per line in order: what DecodeText must
// come to without making them.
func builtFrom(t *testing.T, text string) *Graph {
	t.Helper()
	g := NewGraph()
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 4 && f[0] == "NODE":
			kind, err := ParseNodeKind(f[2])
			if err != nil {
				t.Fatal(err)
			}
			addr := f[3]
			if addr == "-" {
				addr = ""
			}
			g.AddNode(Node{ID: f[1], Kind: kind, Addr: addr})
		case len(f) == 8 && f[0] == "LINK":
			var l Link
			if _, err := fmt.Sscan(strings.Join(f[3:], " "), &l.Capacity, &l.UtilFromTo, &l.UtilToFrom, &l.Latency, &l.Jitter); err != nil {
				t.Fatal(err)
			}
			l.From, l.To = f[1], f[2]
			if _, err := g.AddLink(l); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// assertDecodedAsBuilt holds a decoded graph to the one AddNode and
// AddLink build from the same lines: the same nodes, the same addresses
// bound (addrs lists every address the lines name), the same links in
// order, and the same first link per pair.
func assertDecodedAsBuilt(t *testing.T, got, want *Graph, addrs ...string) {
	t.Helper()
	assertGraphsEqual(t, want, got)
	for _, a := range addrs {
		w, g := want.NodeByAddr(a), got.NodeByAddr(a)
		if (w == nil) != (g == nil) || (w != nil && *w != *g) {
			t.Fatalf("NodeByAddr(%q) = %+v, built %+v", a, g, w)
		}
	}
	for _, l := range want.Links() {
		if got.FindLink(l.To, l.From) == nil || *got.FindLink(l.To, l.From) != *want.FindLink(l.From, l.To) {
			t.Fatalf("FindLink(%s, %s) = %+v, built %+v", l.To, l.From, got.FindLink(l.To, l.From), want.FindLink(l.From, l.To))
		}
	}
	if got.HasParallelLinks() != want.HasParallelLinks() {
		t.Fatalf("HasParallelLinks = %t, built %t", got.HasParallelLinks(), want.HasParallelLinks())
	}
}

// DecodeText reads a bufio.Reader in place, one line at a time: it stops
// on the line after END, gathers a line longer than the reader's buffer,
// and fails on input that ends before END. Line ends and repeated lines
// decode as the line scanner it replaced read them.
func TestDecodeTextReadsInPlace(t *testing.T) {
	const reply = "GRAPH 2 1\nNODE a host 10.0.0.1\nNODE b switch -\nLINK a b 1e+08 5 0.25 1000 0\nEND\n"
	t.Run("stops_at_end", func(t *testing.T) {
		r := bufio.NewReaderSize(strings.NewReader(reply+"HISTORY 0\n"), 64)
		g, err := DecodeText(r)
		if err != nil {
			t.Fatal(err)
		}
		assertDecodedAsBuilt(t, g, builtFrom(t, reply), "10.0.0.1")
		// The line after END is still the reader's.
		if rest, err := r.ReadString('\n'); err != nil || rest != "HISTORY 0\n" {
			t.Fatalf("after END: %q, %v", rest, err)
		}
	})
	t.Run("long_lines", func(t *testing.T) {
		long := strings.Repeat("n", 9000)
		text := "GRAPH 2 1\nNODE " + long + " router 10.0.0.9\nNODE h host h\nLINK h " + long + " 1e+09 0 0 0 0\nEND\nAFTER\n"
		r := bufio.NewReaderSize(strings.NewReader(text), 64)
		g, err := DecodeText(r)
		if err != nil {
			t.Fatal(err)
		}
		if n := g.Node(long); n == nil || g.NodeByAddr("10.0.0.9") != n || g.FindLink(long, "h") == nil {
			t.Fatalf("the 9000-byte node ID did not decode: %+v", g.Nodes())
		}
		if rest, err := r.ReadString('\n'); err != nil || rest != "AFTER\n" {
			t.Fatalf("after END: %q, %v", rest, err)
		}
	})
	t.Run("eof_without_end", func(t *testing.T) {
		for _, in := range []string{
			strings.TrimSuffix(reply, "END\n"),
			"GRAPH 2 1\nNODE a host -\n",
			"GRAPH 2 1\nNODE a host -\nNODE b host -\n",
		} {
			if g, err := DecodeText(bufio.NewReaderSize(strings.NewReader(in), 64)); err == nil {
				t.Fatalf("%q decoded to %d nodes with no END", in, len(g.Nodes()))
			}
		}
		if _, err := DecodeText(bufio.NewReaderSize(strings.NewReader("GRAPH 2 1\nNODE a host -\n"), 64)); err != io.ErrUnexpectedEOF {
			t.Fatalf("a node section cut short: %v, want %v", err, io.ErrUnexpectedEOF)
		}
	})
	t.Run("tiny_reader_buffer", func(t *testing.T) {
		// The smallest buffer a bufio.Reader takes, well under most lines.
		var text bytes.Buffer
		if err := coldReply().EncodeText(&text); err != nil {
			t.Fatal(err)
		}
		g, err := DecodeText(bufio.NewReaderSize(bytes.NewReader(text.Bytes()), 16))
		if err != nil {
			t.Fatal(err)
		}
		assertDecodedAsBuilt(t, g, coldReply())
	})
	t.Run("crlf", func(t *testing.T) {
		g, err := DecodeText(strings.NewReader(strings.ReplaceAll(reply, "\n", "\r\n")))
		if err != nil {
			t.Fatal(err)
		}
		assertDecodedAsBuilt(t, g, builtFrom(t, reply), "10.0.0.1")
	})
	t.Run("unterminated_end", func(t *testing.T) {
		for _, end := range []string{"END", "END\r"} {
			in := strings.TrimSuffix(reply, "END\n") + end
			g, err := DecodeText(strings.NewReader(in))
			if err != nil {
				t.Fatalf("%q: %v", in, err)
			}
			assertDecodedAsBuilt(t, g, builtFrom(t, reply), "10.0.0.1")
		}
	})
	t.Run("duplicate_node", func(t *testing.T) {
		// The encoders never write a second node of an ID, and neither
		// decoder takes one.
		text := "GRAPH 4 2\nNODE a host 10.0.0.1\nNODE b host 10.0.0.2\nNODE a router 10.0.0.2\nNODE c switch -\n" +
			"LINK a b 1 0 0 0 0\nLINK c a 2 0 0 0 0\nEND\n"
		if g, err := DecodeText(strings.NewReader(text)); err == nil || !strings.Contains(err.Error(), `repeated node ID "a"`) {
			t.Fatalf("a repeated node ID decoded to %v, %v", g, err)
		}
		xml := `<topology><node id="a" kind="host"></node><node id="a" kind="router"></node></topology>`
		if g, err := DecodeXML(strings.NewReader(xml)); err == nil || !strings.Contains(err.Error(), `repeated node ID "a"`) {
			t.Fatalf("a repeated node ID decoded from XML to %v, %v", g, err)
		}
	})
	t.Run("parallel_links", func(t *testing.T) {
		text := "GRAPH 2 3\nNODE a host a\nNODE b host b\nLINK a b 1 0 0 0 0\nLINK b a 2 0 0 0 0\nLINK a b 3 0 0 0 0\nEND\n"
		g, err := DecodeText(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		assertDecodedAsBuilt(t, g, builtFrom(t, text), "a", "b")
		if len(g.Links()) != 3 || g.FindLink("b", "a").Capacity != 1 || !g.HasParallelLinks() {
			t.Fatalf("parallel links: %d kept, first %+v", len(g.Links()), g.FindLink("b", "a"))
		}
		// The decoded graph is the caller's to grow: a link added after
		// decoding is indexed after the three read.
		if _, err := g.AddLink(Link{From: "a", To: "b", Capacity: 4}); err != nil || len(g.Links()) != 4 || g.FindLink("a", "b").Capacity != 1 {
			t.Fatalf("AddLink after decode: %v, %d links, first %+v", err, len(g.Links()), g.FindLink("a", "b"))
		}
	})
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
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	g := coldReply()
	var buf bytes.Buffer
	if err := g.EncodeText(&buf); err != nil {
		t.Fatal(err)
	}
	// The one buffer the text is appended into: the nodes are sorted in
	// pooled scratch.
	if n := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := g.EncodeText(&buf); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("EncodeText allocates %.0f times, want <= 1", n)
	}
	// Appended into a buffer with room, the text costs nothing, and it is
	// the text EncodeText writes.
	dst := make([]byte, 0, 2*buf.Len())
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if dst, err = g.AppendText(dst[:0]); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("AppendText into a buffer with room allocates %.0f times, want 0", n)
	}
	if !bytes.Equal(dst, buf.Bytes()) {
		t.Fatalf("AppendText appends\n%s\nEncodeText writes\n%s", dst, buf.Bytes())
	}
	// Decoding makes one string for every ID and address of the reply, the
	// node and link slabs, the graph and its links vector, and the
	// bufio.Reader a bytes.Reader is wrapped in: no table, nothing per
	// node, nothing per link, nothing per field. (Per node, with a string
	// each, it was len(nodes)+22: 87 here; with its three tables and its
	// line scratch, 21.)
	text := buf.Bytes()
	const budget = 7
	n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeText(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("DecodeText of %d nodes and %d links: %.0f allocations", len(g.Nodes()), len(g.Links()), n)
	if n > budget {
		t.Fatalf("DecodeText allocates %.0f times for %d nodes and %d links, want <= %d",
			n, len(g.Nodes()), len(g.Links()), budget)
	}
	// The graph decoded builds no table until it is read, and answers
	// HasParallelLinks without building one.
	d, err := DecodeText(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if d.HasParallelLinks() {
			t.Fatal("the cold reply has parallel links")
		}
	}); n > 0 || d.builtNodes() != nil {
		t.Fatalf("HasParallelLinks of a decoded graph allocates %.0f times, or a table was built", n)
	}
}

// assembled keeps what Assemble returns on the heap, as a reply is.
var assembled *Graph

// An assembled cold reply costs its Graph and its links vector: no table
// is built until the graph is read.
func TestAssembleAllocationBudget(t *testing.T) {
	g := coldReply()
	var nodes []Node
	for _, n := range g.Nodes() {
		nodes = append(nodes, *n)
	}
	var links []Link
	for _, l := range g.Links() {
		links = append(links, *l)
	}
	if n := testing.AllocsPerRun(100, func() { assembled = Assemble(nodes, links) }); n > 2 {
		t.Fatalf("Assemble of %d nodes and %d links allocates %.0f times, want <= 2", len(nodes), len(links), n)
	}
	if assembled.builtNodes() != nil {
		t.Fatal("Assemble built a table")
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

// assertReadsAsAdded holds a graph that has built no table to the graph
// AddNode and AddLink build from its slabs in order — for a decoded graph,
// its lines in text order — on what a reader asks: HasParallelLinks,
// Nodes, Node and NodeByAddr for every node line, and FindLink both ways
// for every link line, by position, since a reading may be NaN.
func assertReadsAsAdded(t *testing.T, g *Graph) {
	t.Helper()
	built := NewGraph()
	for _, n := range g.nodeSlab {
		built.AddNode(n)
	}
	for _, l := range g.linkSlab {
		if _, err := built.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := g.HasParallelLinks(), built.HasParallelLinks(); got != want {
		t.Fatalf("HasParallelLinks = %t, built %t", got, want)
	}
	got, want := g.Nodes(), built.Nodes()
	if len(got) != len(want) {
		t.Fatalf("Nodes() holds %d nodes, built %d", len(got), len(want))
	}
	for i := range got {
		if *got[i] != *want[i] {
			t.Fatalf("Nodes()[%d] = %+v, built %+v", i, *got[i], *want[i])
		}
	}
	for _, n := range g.nodeSlab {
		if got, want := g.Node(n.ID), built.Node(n.ID); *got != *want {
			t.Fatalf("Node(%q) = %+v, built %+v", n.ID, *got, *want)
		}
		if got, want := g.NodeByAddr(n.Addr), built.NodeByAddr(n.Addr); (got == nil) != (want == nil) || got != nil && *got != *want {
			t.Fatalf("NodeByAddr(%q) = %v, built %v", n.Addr, got, want)
		}
	}
	for _, l := range g.linkSlab {
		for _, p := range [2][2]string{{l.From, l.To}, {l.To, l.From}} {
			got, want := slices.Index(g.links, g.FindLink(p[0], p[1])), slices.Index(built.links, built.FindLink(p[0], p[1]))
			if got != want {
				t.Fatalf("FindLink(%s, %s) is link %d, built %d", p[0], p[1], got, want)
			}
		}
	}
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
// must never panic, whatever it accepts must re-encode and decode to the
// same graph, and the decoded graph must answer every lookup as the graph
// AddNode and AddLink build from its lines: shared addresses and parallel
// links are what the fuzzer makes most. Input that repeats a node ID is
// refused, so what decodes holds each ID once. Seeds are the graph blocks
// of the recorded ASCII reply transcripts.
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
		// Read in place through the smallest buffer a bufio.Reader takes,
		// where most lines straddle it, the input decodes alike.
		small, smallErr := DecodeText(bufio.NewReaderSize(bytes.NewReader(b), 16))
		if (err == nil) != (smallErr == nil) {
			t.Fatalf("decoding through a 16-byte reader: %v; through the default one: %v", smallErr, err)
		}
		if err != nil {
			return
		}
		var text, smallText bytes.Buffer
		if err := g.EncodeText(&text); err != nil {
			t.Fatalf("a decoded graph failed to encode: %v", err)
		}
		if err := small.EncodeText(&smallText); err != nil || !bytes.Equal(text.Bytes(), smallText.Bytes()) {
			t.Fatalf("through a 16-byte reader the graph re-encodes as\n%s\nnot\n%s", smallText.Bytes(), text.Bytes())
		}
		seen := make(map[string]bool, len(small.nodeSlab))
		for _, n := range small.nodeSlab {
			if seen[n.ID] {
				t.Fatalf("node ID %q decoded twice", n.ID)
			}
			seen[n.ID] = true
		}
		// Encoding built no table: the lookups below build small's.
		assertReadsAsAdded(t, small)
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
