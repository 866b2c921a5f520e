package snmp

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Transport delivers one request datagram to an agent address and returns
// the response, which it hands over: a transport keeps no reference to a
// response it returns, because the client gives each one back to the
// datagram pool once it has decoded it (one that did not come from the
// pool is left to the garbage collector). Implementations must be safe for
// concurrent use, and concurrent exchanges — with one agent as with many —
// must not wait on each other: InProc runs the agent on the caller's
// goroutine and UDP dials a socket per exchange, so a Client's concurrent
// callers overlap their round trips. The returned rtt is the (real or
// modeled) round-trip time of the exchange, which the client accumulates
// into its Meter — the quantity the Fig 3 scalability experiment measures.
type Transport interface {
	RoundTrip(addr string, req []byte) (resp []byte, rtt time.Duration, err error)
}

// Registry maps agent addresses to in-process agents. It is the simulated
// management network: a client using an InProc transport reaches agents
// registered here.
type Registry struct {
	mu     sync.RWMutex
	agents map[string]*Agent
}

// NewRegistry returns an empty agent registry.
func NewRegistry() *Registry {
	return &Registry{agents: make(map[string]*Agent)}
}

// Register binds an agent to an address (conventionally the device's
// management IP as a string). Re-registering replaces the agent.
func (r *Registry) Register(addr string, a *Agent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.agents[addr] = a
}

// Unregister removes an address, modeling an agent going dark.
func (r *Registry) Unregister(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.agents, addr)
}

// Lookup returns the agent at addr, or nil.
func (r *Registry) Lookup(addr string) *Agent {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.agents[addr]
}

// InProc is a Transport that dispatches directly to a Registry with a
// modeled per-destination round-trip latency. Simulated campus networks
// with a thousand devices use it instead of real sockets.
type InProc struct {
	Registry *Registry

	// Latency models the round-trip time to an address. nil means a
	// constant 1ms.
	Latency func(addr string) time.Duration
}

// ErrTimeout is the error for unanswered requests (no agent, wrong
// community, or a real socket timing out).
var ErrTimeout = fmt.Errorf("snmp: request timed out")

// RoundTrip implements Transport. The response is the agent's buffer from
// the datagram pool, handed over as it is.
func (t *InProc) RoundTrip(addr string, req []byte) ([]byte, time.Duration, error) {
	rtt := time.Millisecond
	if t.Latency != nil {
		rtt = t.Latency(addr)
	}
	a := t.Registry.Lookup(addr)
	if a == nil {
		return nil, rtt, ErrTimeout
	}
	resp := a.HandleBytes(req)
	if resp == nil {
		return nil, rtt, ErrTimeout
	}
	return resp, rtt, nil
}

// UDP is a Transport sending real SNMP datagrams. Addresses take the
// usual "host:port" form.
type UDP struct {
	// Timeout is the per-attempt read deadline; 0 means 2 seconds.
	Timeout time.Duration
}

// RoundTrip implements Transport over a fresh UDP socket per call. The
// response is a copy of its own.
func (t *UDP) RoundTrip(addr string, req []byte) ([]byte, time.Duration, error) {
	timeout := t.Timeout
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	start := time.Now()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, 0, err
	}
	defer conn.Close()
	if _, err := conn.Write(req); err != nil {
		return nil, 0, err
	}
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return nil, 0, err
	}
	buf := datagramPool.Get().(*datagram)
	defer datagramPool.Put(buf)
	n, err := conn.Read(buf[:])
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return nil, time.Since(start), ErrTimeout
		}
		return nil, time.Since(start), err
	}
	resp := make([]byte, n)
	copy(resp, buf[:n])
	return resp, time.Since(start), nil
}

// datagramSize is room for any UDP payload.
const datagramSize = 65535

// datagram is one buffer of the datagram pool.
type datagram [datagramSize]byte

// datagramPool holds the buffers the agent encodes responses into and UDP
// reads them into. It holds array pointers, so a Put boxes nothing. UDP
// copies what it reads out at the datagram's size, so a caller keeping a
// response over a socket holds that and not 64 KiB.
var datagramPool = sync.Pool{New: func() any { return new(datagram) }}

// releaseDatagram gives a response back to the datagram pool once nothing
// reads it. A buffer of another capacity is not the pool's (UDP's
// exact-size copy, a test transport's own) and is left to the garbage
// collector.
func releaseDatagram(b []byte) {
	if cap(b) == datagramSize {
		datagramPool.Put((*datagram)(b[:datagramSize]))
	}
}

// Server serves one agent over a real UDP socket, for live deployments and
// loopback integration tests.
type Server struct {
	Agent *Agent

	conn *net.UDPConn
	wg   sync.WaitGroup
}

// ListenAndServe binds the UDP address (e.g. "127.0.0.1:0") and serves
// until Close. It returns the bound address immediately; serving happens
// on a background goroutine.
func (s *Server) ListenAndServe(addr string) (string, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return "", err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return "", err
	}
	s.conn = conn
	s.wg.Add(1)
	//remoslint:allow goctx read loop ends when Close closes the UDP socket; Close waits on the group
	go func() {
		defer s.wg.Done()
		buf := make([]byte, datagramSize)
		for {
			n, peer, err := conn.ReadFromUDP(buf)
			if err != nil {
				return // closed
			}
			if resp := s.Agent.HandleBytes(buf[:n]); resp != nil { // HandleBytes does not retain the request
				conn.WriteToUDP(resp, peer)
				releaseDatagram(resp)
			}
		}
	}()
	return conn.LocalAddr().String(), nil
}

// Close stops the server and waits for the serving goroutine.
func (s *Server) Close() error {
	if s.conn == nil {
		return nil
	}
	err := s.conn.Close()
	s.wg.Wait()
	return err
}
