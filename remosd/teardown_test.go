package remosd_test

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"os"
	"runtime"
	"testing"
	"time"

	"remos"
	"remos/remosd"
)

// TestCloseLeavesNothing boots a single-master daemon with tenants and a
// two-daemon federated mesh, runs a QUERY and a FLOWS over both wire
// protocols against each, holds a WATCH open over each protocol of the
// single master, then closes every client and daemon. Within five seconds
// the process must be back to the goroutines it had before the first
// start and, where /proc/self/fd is readable, to its descriptors.
func TestCloseLeavesNothing(t *testing.T) {
	// The runtime's network poller opens its descriptors on first use and
	// keeps them: use it once before counting.
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
	}
	goroutines, fds := runtime.NumGoroutine(), openFDs()

	single := testConfig()
	single.Tenants = map[string]remosd.Tenant{"app": {Key: "sekrit"}}
	fed := testConfig()
	fed.FedRefresh, fed.FedLeaseTTL = 100*time.Millisecond, 2*time.Second
	pair := remosd.StartFederatedPair(t, fed)
	daemons := []*remosd.Daemon{startDaemon(t, single), pair[0], pair[1]}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var conns []*remos.Connection
	var watches []<-chan remos.Update
	for i, d := range daemons {
		// app1 and app2 share a switch: the single master's first site,
		// and federated domain d0.
		pair := []netip.Addr{d.Hosts[0].Addr, d.Hosts[1].Addr}
		for _, target := range []string{"tcp://" + d.ASCIIAddr, "http://" + d.HTTPAddr} {
			conn, err := remos.Dial(target, remos.WithTenant("app", "sekrit"))
			if err != nil {
				t.Fatal(err)
			}
			conns = append(conns, conn)
			// A federated daemon answers for a domain once the domain's
			// lease is in its directory replica; until then it fails typed.
			for {
				_, err = conn.GetTopologyContext(ctx, pair, remos.TopologyOptions{})
				if err == nil {
					_, err = conn.GetFlowsContext(ctx, []remos.Flow{{Src: pair[0], Dst: pair[1]}}, remos.FlowOptions{})
				}
				if err == nil {
					break
				}
				if ctx.Err() != nil || !errors.Is(err, remos.ErrUnknownHost) && !errors.Is(err, remos.ErrCollectorUnavailable) {
					t.Fatalf("%s: %v", target, err)
				}
				time.Sleep(50 * time.Millisecond)
			}
			if i > 0 {
				continue // the federation router serves no watch plane
			}
			ch, err := conn.Watch(ctx, remos.WatchQuery{Src: pair[0], Dst: pair[1]}, remos.WatchOnChange(0.1))
			if err != nil {
				t.Fatal(err)
			}
			select {
			case u := <-ch:
				if u.Err != nil {
					t.Fatalf("%s: watch ended before it started: %v", target, u.Err)
				}
			case <-ctx.Done():
				t.Fatalf("%s: no first watch update", target)
			}
			watches = append(watches, ch)
		}
	}

	for _, c := range conns {
		c.Close()
	}
	for _, d := range daemons {
		d.Close()
	}
	for _, ch := range watches {
		for range ch {
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		g, f := runtime.NumGoroutine(), openFDs()
		if g <= goroutines && f <= fds {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("5s after Close: %d goroutines (%d before start), %d descriptors (%d before start)\n%s",
				g, goroutines, f, fds, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// startDaemon starts cfg and closes the daemon when the test ends, should
// the test not have closed it itself.
func startDaemon(t *testing.T, cfg remosd.Config) *remosd.Daemon {
	t.Helper()
	d, err := cfg.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// openFDs counts the process's open descriptors, or returns -1 where
// /proc/self/fd cannot be read.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}
