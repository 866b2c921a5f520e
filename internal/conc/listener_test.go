package conc_test

import (
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"remos/internal/collector/benchcoll"
	"remos/internal/directory"
	"remos/internal/proto"
)

// server is what the tree's three TCP servers have in common.
type server interface {
	ListenAndServe(addr string) (string, error)
	Close() error
}

// servers returns one fresh instance of every TCP server in the tree.
func servers() map[string]server {
	return map[string]server{
		"proto.TCPServer":  &proto.TCPServer{},
		"directory.Server": &directory.Server{},
		"benchcoll.Sink":   &benchcoll.Sink{},
	}
}

// TestCloseDisconnectsIdlePeers holds every TCP server in the tree to
// the Listener's contract: with a peer connected and idle, Close returns
// promptly, the peer sees EOF, and no goroutine outlives it.
func TestCloseDisconnectsIdlePeers(t *testing.T) {
	for name, srv := range servers() {
		t.Run(name, func(t *testing.T) {
			before := settledGoroutines()
			addr, err := srv.ListenAndServe("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			peer, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			// The accept loop and the peer's serve loop: a connection
			// still in the backlog at Close would be reset, not closed.
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() < before+2; {
				if time.Now().After(deadline) {
					t.Fatalf("no serve goroutine for the peer: %d goroutines, %d before ListenAndServe", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}

			closed := make(chan error, 1)
			go func() { closed <- srv.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Errorf("Close: %v", err)
				}
			case <-time.After(time.Second):
				t.Fatal("Close still waiting after 1s with an idle peer connected")
			}

			peer.SetReadDeadline(time.Now().Add(time.Second))
			if _, err := io.Copy(io.Discard, peer); err != nil {
				t.Errorf("peer read after Close: %v, want EOF", err)
			}
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before ListenAndServe", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestCloseBeforeListen: a server that never started closes as a no-op.
func TestCloseBeforeListen(t *testing.T) {
	for name, srv := range servers() {
		if err := srv.Close(); err != nil {
			t.Errorf("%s: Close before ListenAndServe: %v", name, err)
		}
	}
}

// settledGoroutines samples the goroutine count until two samples a
// millisecond apart agree: goroutines an earlier test has already waited
// for may still be exiting.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
}
