package proto

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/rerr"
	"remos/internal/topology"
	"remos/internal/watch"
)

var (
	watchSrc = netip.MustParseAddr("10.0.1.1")
	watchDst = netip.MustParseAddr("10.0.2.2")
)

// watchPair is the watched pair as the scheduler polls it.
var watchPair = []netip.Addr{watchSrc, watchDst}

// availIndex builds a generation's path index whose src->dst bottleneck
// availability is exactly avail (capacity 10e6), for driving
// Registry.Evaluate.
func availIndex(avail float64) *topology.PathIndex {
	g := topology.NewGraph()
	g.AddNode(topology.Node{ID: watchSrc.String(), Kind: topology.HostNode, Addr: watchSrc.String()})
	g.AddNode(topology.Node{ID: watchDst.String(), Kind: topology.HostNode, Addr: watchDst.String()})
	g.AddLink(topology.Link{
		From: watchSrc.String(), To: watchDst.String(),
		Capacity: 10e6, UtilFromTo: 10e6 - avail, UtilToFrom: 10e6 - avail,
	})
	return topology.NewPathIndex(g)
}

func waitActive(t *testing.T, reg *watch.Registry, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Active() != n {
		if time.Now().After(deadline) {
			t.Fatalf("registry never reached %d active watches (at %d)", n, reg.Active())
		}
		time.Sleep(time.Millisecond)
	}
}

func recvUpdate(t *testing.T, ch <-chan watch.Update) watch.Update {
	t.Helper()
	select {
	case u, ok := <-ch:
		if !ok {
			t.Fatal("update channel closed early")
		}
		return u
	case <-time.After(5 * time.Second):
		t.Fatal("no update within 5s")
	}
	panic("unreachable")
}

// watchClient abstracts the two transports for the shared round-trip body.
type watchClient interface {
	Watch(ctx context.Context, spec watch.Spec) (<-chan watch.Update, error)
}

func startASCII(t *testing.T, reg *watch.Registry) watchClient {
	t.Helper()
	srv := &TCPServer{Collector: &echoCollector{}, Watch: reg}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl := &TCPClient{Addr: addr}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func startSSE(t *testing.T, reg *watch.Registry) watchClient {
	t.Helper()
	srv := &HTTPServer{Collector: &echoCollector{}, Watch: reg}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &HTTPClient{BaseURL: "http://" + addr}
}

func testWatchRoundTrip(t *testing.T, mk func(*testing.T, *watch.Registry) watchClient) {
	reg := watch.New(watch.Config{Now: time.Now})
	defer reg.Close(nil)
	cl := mk(t, reg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := cl.Watch(ctx, watch.Spec{Src: watchSrc, Dst: watchDst, Below: 5e6})
	if err != nil {
		t.Fatal(err)
	}
	waitActive(t, reg, 1)

	reg.Evaluate(watchPair, availIndex(8e6))
	u := recvUpdate(t, ch)
	if u.Reason != watch.ReasonInit || u.Avail != 8e6 || u.Seq != 1 {
		t.Fatalf("baseline update = %+v", u)
	}
	if u.Src != watchSrc || u.Dst != watchDst {
		t.Fatalf("endpoints did not survive the wire: %+v", u)
	}

	reg.Evaluate(watchPair, availIndex(3e6))
	u = recvUpdate(t, ch)
	if u.Reason != watch.ReasonBelow || u.Avail != 3e6 || u.Prev != 8e6 || u.Seq != 2 {
		t.Fatalf("crossing update = %+v", u)
	}

	// Caller cancellation: terminal update with the context's error,
	// then the channel closes, then the server forgets the watch.
	cancel()
	sawTerminal := false
	deadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case u, ok := <-ch:
			if !ok {
				open = false
				break
			}
			if u.Err != nil {
				if !errors.Is(u.Err, context.Canceled) {
					t.Fatalf("terminal err = %v, want context.Canceled", u.Err)
				}
				sawTerminal = true
			}
		case <-deadline:
			t.Fatal("channel never closed after cancel")
		}
	}
	if !sawTerminal {
		t.Fatal("no terminal update carried the close reason")
	}
	waitActive(t, reg, 0)
}

func TestASCIIWatchRoundTrip(t *testing.T) { testWatchRoundTrip(t, startASCII) }
func TestSSEWatchRoundTrip(t *testing.T)   { testWatchRoundTrip(t, startSSE) }

// TestASCIIWatchUnwatchedBeforeClose holds the race the round-trip test
// used to lose about once in 300 runs: the server's UNWATCHED reaching
// the client's reader before the cancellation watcher has closed the
// connection. The scripted peer sits on a net.Pipe, where a write returns
// only once it has been read: by reading the client's UNWATCH line up to,
// not including, its newline, the peer keeps the watcher inside its write
// — so short of its Close — until the reader has consumed UNWATCHED.
func TestASCIIWatchUnwatchedBeforeClose(t *testing.T) {
	readLine := func(c net.Conn) string {
		var line []byte
		for b := make([]byte, 1); ; {
			if _, err := c.Read(b); err != nil || b[0] == '\n' {
				return string(line)
			}
			line = append(line, b[0])
		}
	}
	const unwatch = "UNWATCH 7"
	for i := 0; i < 200; i++ {
		client, peer := net.Pipe()
		ctx, cancel := context.WithCancel(context.Background())
		peerErr := make(chan error, 1)
		go func() {
			defer peer.Close()
			if got := readLine(peer); !strings.HasPrefix(got, "WATCH ") {
				peerErr <- fmt.Errorf("request %q", got)
				return
			}
			io.WriteString(peer, "WATCHING 7\n")
			held := make([]byte, len(unwatch))
			if _, err := io.ReadFull(peer, held); err != nil || string(held) != unwatch {
				peerErr <- fmt.Errorf("unwatch %q: %v", held, err)
				return
			}
			io.WriteString(peer, "UNWATCHED 7\n") // returns once the client's reader has it
			readLine(peer)                        // the held newline: the watcher may close now
			peerErr <- nil
		}()
		ch, err := (&TCPClient{}).watchOn(ctx, client,
			watch.Spec{Src: watchSrc, Dst: watchDst, ChangeFrac: 0.1}, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		if u, ok := <-ch; !ok || !errors.Is(u.Err, context.Canceled) {
			t.Fatalf("iteration %d: got update %+v (open %t), want the terminal context.Canceled", i, u, ok)
		}
		if u, ok := <-ch; ok {
			t.Fatalf("iteration %d: channel delivered %+v after the terminal update", i, u)
		}
		if err := <-peerErr; err != nil {
			t.Fatalf("iteration %d: peer: %v", i, err)
		}
	}
}

func testWatchServerShutdown(t *testing.T, mk func(*testing.T, *watch.Registry) watchClient) {
	reg := watch.New(watch.Config{Now: time.Now})
	cl := mk(t, reg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := cl.Watch(ctx, watch.Spec{Src: watchSrc, Dst: watchDst, ChangeFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	waitActive(t, reg, 1)

	// Server-side shutdown: the typed reason crosses the wire.
	reg.Close(rerr.Tagf(rerr.ErrCollectorUnavailable, "server shutting down"))
	sawTyped := false
	deadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case u, ok := <-ch:
			if !ok {
				open = false
				break
			}
			if u.Err != nil && errors.Is(u.Err, rerr.ErrCollectorUnavailable) {
				sawTyped = true
			}
		case <-deadline:
			t.Fatal("channel never closed after server shutdown")
		}
	}
	if !sawTyped {
		t.Fatal("close reason lost its type crossing the wire")
	}
}

func TestASCIIWatchServerShutdown(t *testing.T) { testWatchServerShutdown(t, startASCII) }
func TestSSEWatchServerShutdown(t *testing.T)   { testWatchServerShutdown(t, startSSE) }

func TestWatchRejectsBadSpec(t *testing.T) {
	reg := watch.New(watch.Config{Now: time.Now})
	defer reg.Close(nil)
	for name, cl := range map[string]watchClient{
		"ascii": startASCII(t, reg),
		"sse":   startSSE(t, reg),
	} {
		// No predicate at all: rejected at subscribe time, not silently
		// accepted as a dead watch.
		_, err := cl.Watch(context.Background(), watch.Spec{Src: watchSrc, Dst: watchDst})
		if err == nil {
			t.Errorf("%s: predicate-free spec accepted", name)
		}
	}
	if reg.Active() != 0 {
		t.Fatalf("rejected specs left %d active watches", reg.Active())
	}
}

func TestWatchAgainstServerWithoutRegistry(t *testing.T) {
	for name, cl := range map[string]watchClient{
		"ascii": startASCII(t, nil),
		"sse":   startSSE(t, nil),
	} {
		_, err := cl.Watch(context.Background(), watch.Spec{Src: watchSrc, Dst: watchDst, Below: 1e6})
		if err == nil {
			t.Fatalf("%s: watch against a watchless server succeeded", name)
		}
		if !errors.Is(err, rerr.ErrCollectorUnavailable) {
			t.Fatalf("%s: err = %v, want typed UNAVAILABLE", name, err)
		}
	}
}

// TestASCIIQueriesAndWatchesShareAConnection drives both verb sets over
// one raw connection: WATCH, an interleaved QUERY, pushed UPDATEs and
// UNWATCH all frame correctly through the shared writer.
func TestASCIIQueriesAndWatchesShareAConnection(t *testing.T) {
	reg := watch.New(watch.Config{Now: time.Now})
	defer reg.Close(nil)
	srv := &TCPServer{Collector: &echoCollector{}, Watch: reg}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := &TCPClient{Addr: addr}
	defer cl.Close()

	// Subscribe on the client's own connection (dedicated), then issue
	// queries over a second connection while updates flow.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := cl.Watch(ctx, watch.Spec{Src: watchSrc, Dst: watchDst, ChangeFrac: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	waitActive(t, reg, 1)
	reg.Evaluate(watchPair, availIndex(8e6))
	recvUpdate(t, ch)

	for i := 0; i < 5; i++ {
		res, err := cl.Collect(collector.Query{Hosts: hostList(watchSrc.String(), watchDst.String())})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Graph.Nodes()) != 2 {
			t.Fatalf("query %d returned %d nodes", i, len(res.Graph.Nodes()))
		}
		reg.Evaluate(watchPair, availIndex(8e6*(1-0.1*float64(i+1))))
		recvUpdate(t, ch)
	}
}

// TestWatchGoroutineCleanup churns subscriptions over both transports
// and asserts the process goroutine count settles back: no leaked
// drains, readers, or cancellation watchers.
func TestWatchGoroutineCleanup(t *testing.T) {
	reg := watch.New(watch.Config{Now: time.Now})
	defer reg.Close(nil)
	ascii := startASCII(t, reg)
	sse := startSSE(t, reg)

	// Warm both paths once so lazily created machinery (http transport
	// pools etc.) doesn't count as a leak.
	warmCtx, warmCancel := context.WithCancel(context.Background())
	for _, cl := range []watchClient{ascii, sse} {
		ch, err := cl.Watch(warmCtx, watch.Spec{Src: watchSrc, Dst: watchDst, ChangeFrac: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		_ = ch
	}
	warmCancel()
	waitActive(t, reg, 0)
	time.Sleep(50 * time.Millisecond)

	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		for _, cl := range []watchClient{ascii, sse} {
			ctx, cancel := context.WithCancel(context.Background())
			ch, err := cl.Watch(ctx, watch.Spec{Src: watchSrc, Dst: watchDst, ChangeFrac: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			waitActive(t, reg, 1)
			reg.Evaluate(watchPair, availIndex(5e6))
			recvUpdate(t, ch)
			cancel()
			for range ch {
			}
			waitActive(t, reg, 0)
		}
	}
	waitGoroutines(t, before)
}

// waitGoroutines fails unless the process goroutine count settles back
// to at most before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTCPServerCloseDropsConnections: Close with an idle client and a
// live WATCH still attached closes both connections and returns only
// once their serve loops and the watch drain are gone — no goroutine or
// subscription outlives it.
func TestTCPServerCloseDropsConnections(t *testing.T) {
	reg := watch.New(watch.Config{Now: time.Now})
	defer reg.Close(nil)
	before := runtime.NumGoroutine()
	srv := &TCPServer{Collector: &echoCollector{}, Watch: reg}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	idle := &TCPClient{Addr: addr}
	defer idle.Close()
	if _, err := idle.Collect(collector.Query{Hosts: hostList("10.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	ch, err := (&TCPClient{Addr: addr}).Watch(context.Background(), watch.Spec{Src: watchSrc, Dst: watchDst, Below: 5e6})
	if err != nil {
		t.Fatal(err)
	}
	waitActive(t, reg, 1)

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with clients attached")
	}
	if n := reg.Active(); n != 0 {
		t.Fatalf("%d subscriptions outlived Close", n)
	}
	var last watch.Update
	for u := range ch {
		last = u
	}
	if !errors.Is(last.Err, rerr.ErrCollectorUnavailable) {
		t.Fatalf("watch ended with %v, want the dropped connection as typed UNAVAILABLE", last.Err)
	}
	idle.Close()
	waitGoroutines(t, before)
}
