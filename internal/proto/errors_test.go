package proto

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/rerr"
)

// classedCollector fails every query with a configured error.
type classedCollector struct{ err error }

func (c *classedCollector) Name() string { return "classed" }
func (c *classedCollector) Collect(q collector.Query) (*collector.Result, error) {
	return nil, c.err
}

// transports builds a connected (server, client) pair per protocol over
// the given collector.
func transports(t *testing.T, coll collector.Interface) map[string]collector.Interface {
	t.Helper()
	tcpSrv := &TCPServer{Collector: coll}
	tcpAddr, err := tcpSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcpSrv.Close() })
	tcpCl := &TCPClient{Addr: tcpAddr}
	t.Cleanup(func() { tcpCl.Close() })

	httpSrv := &HTTPServer{Collector: coll}
	httpAddr, err := httpSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { httpSrv.Close() })
	return map[string]collector.Interface{
		"ascii": tcpCl,
		"xml":   &HTTPClient{BaseURL: "http://" + httpAddr},
	}
}

func TestErrorClassRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		remote   error
		sentinel error
	}{
		{"no-route", rerr.Tagf(rerr.ErrNoRoute, "topology: no path from a to b"), rerr.ErrNoRoute},
		{"unknown-host", rerr.Tagf(rerr.ErrUnknownHost, "master: no collector is responsible for 10.9.9.9"), rerr.ErrUnknownHost},
		{"unavailable", rerr.Tagf(rerr.ErrCollectorUnavailable, "master: snmp-a: boom"), rerr.ErrCollectorUnavailable},
		{"timeout", rerr.Tagf(rerr.ErrTimeout, "snmp: timeout waiting for 10.0.0.1"), rerr.ErrTimeout},
		// A shed the collector itself relays (a federation peer's, say)
		// keeps its retry-after hint, as the server's own sheds do.
		{"relayed-shed", rerr.WithRetryAfter(rerr.Tagf(rerr.ErrOverloaded, "federation: peer shed the sub-query"), 1500*time.Millisecond), rerr.ErrOverloaded},
	}
	for _, tc := range cases {
		coll := &classedCollector{err: tc.remote}
		for proto, cl := range transports(t, coll) {
			_, err := cl.Collect(collector.Query{Hosts: hostList("10.0.0.1")})
			if err == nil {
				t.Fatalf("%s/%s: remote failure not reported", proto, tc.name)
			}
			if !errors.Is(err, tc.sentinel) {
				t.Errorf("%s/%s: class lost over the wire: %v", proto, tc.name, err)
			}
			if !strings.Contains(err.Error(), tc.remote.Error()) {
				t.Errorf("%s/%s: message lost: %q does not contain %q",
					proto, tc.name, err.Error(), tc.remote.Error())
			}
			want, _ := rerr.RetryAfter(tc.remote)
			if got, _ := rerr.RetryAfter(err); got != want {
				t.Errorf("%s/%s: retry-after hint = %v over the wire, want %v", proto, tc.name, got, want)
			}
		}
	}
}

func TestUnclassifiedErrorStaysPlain(t *testing.T) {
	coll := &classedCollector{err: fmt.Errorf("ERRATIC measurement glitch")}
	for proto, cl := range transports(t, coll) {
		_, err := cl.Collect(collector.Query{Hosts: hostList("10.0.0.1")})
		if err == nil {
			t.Fatalf("%s: remote failure not reported", proto)
		}
		// The first word looks vaguely code-like but is not a known wire
		// code; it must stay part of the message, and no class may be
		// invented.
		if !strings.Contains(err.Error(), "ERRATIC measurement glitch") {
			t.Errorf("%s: message mangled: %q", proto, err)
		}
		for _, sentinel := range []error{rerr.ErrNoRoute, rerr.ErrUnknownHost, rerr.ErrTimeout} {
			if errors.Is(err, sentinel) {
				t.Errorf("%s: spurious class %v on plain error", proto, sentinel)
			}
		}
	}
}

func TestDownedServerIsCollectorUnavailable(t *testing.T) {
	// Grab a port that nothing listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	clients := map[string]collector.Interface{
		"ascii": &TCPClient{Addr: addr, Timeout: 2 * time.Second},
		"xml":   &HTTPClient{BaseURL: "http://" + addr},
	}
	for proto, cl := range clients {
		_, err := cl.Collect(collector.Query{Hosts: hostList("10.0.0.1")})
		if err == nil {
			t.Fatalf("%s: query against downed server succeeded", proto)
		}
		if !errors.Is(err, rerr.ErrCollectorUnavailable) {
			t.Errorf("%s: err = %v, want ErrCollectorUnavailable", proto, err)
		}
	}
}

// stallCollector blocks until its query's context is canceled or the
// test releases it (the ASCII server does not cancel server-side work
// when a client walks away; the valve keeps its goroutine from
// outliving the test).
type stallCollector struct {
	entered chan struct{}
	release chan struct{}
}

func newStallCollector() *stallCollector {
	return &stallCollector{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (s *stallCollector) Name() string { return "stall" }
func (s *stallCollector) Collect(q collector.Query) (*collector.Result, error) {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	select {
	case <-q.Context().Done():
	case <-s.release:
	}
	if err := q.Context().Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("stall: released before cancellation")
}

func TestClientContextCancellation(t *testing.T) {
	for proto, mk := range map[string]func(t *testing.T, coll collector.Interface) collector.Interface{
		"ascii": func(t *testing.T, coll collector.Interface) collector.Interface {
			srv := &TCPServer{Collector: coll}
			addr, err := srv.ListenAndServe("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			cl := &TCPClient{Addr: addr}
			t.Cleanup(func() { cl.Close() })
			return cl
		},
		"xml": func(t *testing.T, coll collector.Interface) collector.Interface {
			srv := &HTTPServer{Collector: coll}
			addr, err := srv.ListenAndServe("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			return &HTTPClient{BaseURL: "http://" + addr}
		},
	} {
		t.Run(proto, func(t *testing.T) {
			// The server-side collector stalls until the client walks
			// away; the client's cancellation must unblock Collect
			// promptly rather than waiting out any protocol timeout.
			stall := newStallCollector()
			cl := mk(t, stall)
			t.Cleanup(func() { close(stall.release) })
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := cl.Collect(collector.Query{Hosts: hostList("10.0.0.1")}.WithContext(ctx))
				done <- err
			}()
			<-stall.entered
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Collect did not return after cancellation")
			}
		})
	}
}

func TestClientContextDeadline(t *testing.T) {
	stall := newStallCollector()
	srv := &TCPServer{Collector: stall}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(stall.release) // first: Close waits for the exchange in flight
	cl := &TCPClient{Addr: addr, Timeout: time.Minute}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cl.Collect(collector.Query{Hosts: hostList("10.0.0.1")}.WithContext(ctx))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to take effect", elapsed)
	}
}
