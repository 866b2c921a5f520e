package remos

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"remos/internal/proto"
	"remos/internal/watch"
)

// TestWatchCyclesLeaveNoConnectionState: a long-lived Connection that
// starts and cancels many watches holds no per-watch state once their
// channels have closed.
func TestWatchCyclesLeaveNoConnectionState(t *testing.T) {
	reg := watch.New(watch.Config{Now: time.Now})
	t.Cleanup(func() { reg.Close(nil) })
	srv := &proto.TCPServer{Watch: reg}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := Dial("tcp://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	q := WatchQuery{Src: netip.MustParseAddr("10.0.1.1"), Dst: netip.MustParseAddr("10.0.2.2")}
	for i := 0; i < 1000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		ch, err := conn.Watch(ctx, q, WatchBelow(5e6))
		if err != nil {
			t.Fatalf("watch %d: %v", i, err)
		}
		cancel()
		for range ch {
		}
	}
	live := func() int {
		conn.mu.Lock()
		defer conn.mu.Unlock()
		return len(conn.watches)
	}
	// A watch is forgotten just after its context ends, which may trail
	// the channel's close by a scheduling delay.
	for deadline := time.Now().Add(5 * time.Second); live() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := live(); n != 0 {
		t.Fatalf("connection still tracks %d of 1000 ended watches", n)
	}
}
