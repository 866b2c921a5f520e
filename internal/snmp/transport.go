package snmp

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Transport delivers one request datagram to an agent address and returns
// the response. Implementations must be safe for concurrent use. The
// returned rtt is the (real or modeled) round-trip time of the exchange,
// which the client accumulates into its Meter — the quantity the Fig 3
// scalability experiment measures.
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

// RoundTrip implements Transport.
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

// ErrClosed reports use of a session (or client) after Close.
var ErrClosed = fmt.Errorf("snmp: session closed")

// Session is a pipelined exchange channel to one agent: multiple requests
// may be in flight at once, and responses are matched to requests by the
// RequestID encoded in the PDU rather than by arrival order. Send and Recv
// may be called from different goroutines; neither retains req/resp bytes
// after returning.
type Session interface {
	// Send transmits one encoded request. reqID is the RequestID encoded
	// in req, so per-request transport errors can be attributed without
	// decoding.
	Send(reqID int32, req []byte) error
	// Recv blocks for the next completed exchange. For successful
	// exchanges resp is the raw response datagram (which may answer any
	// outstanding reqID — the caller demultiplexes); for failed ones resp
	// is nil and reqID names the request that failed.
	Recv() (reqID int32, resp []byte, rtt time.Duration, err error)
	Close() error
}

// SessionTransport is implemented by transports that support pipelining.
// Clients with Pipeline > 1 open one session per agent and keep N requests
// outstanding on it.
type SessionTransport interface {
	Transport
	OpenSession(addr string) (Session, error)
}

// OpenSession implements SessionTransport. The in-proc session dispatches
// each request on its own goroutine, so N outstanding requests to one
// simulated agent overlap their modeled RTTs just as real datagrams would.
func (t *InProc) OpenSession(addr string) (Session, error) {
	return &inprocSession{t: t, addr: addr, done: make(chan struct{}), ch: make(chan inprocResult)}, nil
}

type inprocResult struct {
	reqID int32
	resp  []byte
	rtt   time.Duration
	err   error
}

type inprocSession struct {
	t    *InProc
	addr string
	ch   chan inprocResult

	closeOnce sync.Once
	done      chan struct{}
}

func (s *inprocSession) Send(reqID int32, req []byte) error {
	select {
	case <-s.done:
		return ErrClosed
	default:
	}
	go func() {
		resp, rtt, err := s.t.RoundTrip(s.addr, req)
		select {
		case s.ch <- inprocResult{reqID: reqID, resp: resp, rtt: rtt, err: err}:
		case <-s.done:
		}
	}()
	return nil
}

func (s *inprocSession) Recv() (int32, []byte, time.Duration, error) {
	select {
	case r := <-s.ch:
		return r.reqID, r.resp, r.rtt, r.err
	case <-s.done:
		return 0, nil, 0, ErrClosed
	}
}

func (s *inprocSession) Close() error {
	s.closeOnce.Do(func() { close(s.done) })
	return nil
}

// UDP is a Transport sending real SNMP datagrams. Addresses take the
// usual "host:port" form.
type UDP struct {
	// Timeout is the per-attempt read deadline; 0 means 2 seconds.
	Timeout time.Duration
}

// RoundTrip implements Transport over a fresh UDP socket per call.
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
	buf := make([]byte, 65535)
	n, err := conn.Read(buf)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return nil, time.Since(start), ErrTimeout
		}
		return nil, time.Since(start), err
	}
	return buf[:n], time.Since(start), nil
}

// OpenSession implements SessionTransport: one connected UDP socket with
// many requests outstanding. Responses are matched to requests by decoding
// the response's RequestID; the oldest outstanding request times out when
// nothing arrives for it within Timeout.
func (t *UDP) OpenSession(addr string) (Session, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	timeout := t.Timeout
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	s := &udpSession{
		conn:    conn.(*net.UDPConn),
		timeout: timeout,
		sent:    make(map[int32]time.Time),
		buf:     make([]byte, 65535),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

type udpSession struct {
	conn    *net.UDPConn
	timeout time.Duration
	buf     []byte // Recv scratch; Recv is single-goroutine

	mu     sync.Mutex
	cond   *sync.Cond          // signals a new outstanding request
	sent   map[int32]time.Time // send time per outstanding RequestID
	order  []int32             // outstanding RequestIDs, oldest first
	closed bool
}

func (s *udpSession) Send(reqID int32, req []byte) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.sent[reqID] = time.Now()
	s.order = append(s.order, reqID)
	s.cond.Signal()
	s.mu.Unlock()
	_, err := s.conn.Write(req)
	return err
}

// oldest blocks until a request is outstanding (Recv may run ahead of the
// Send it will answer) and returns the longest-outstanding RequestID.
func (s *udpSession) oldest() (int32, time.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.order) > 0 {
			id := s.order[0]
			if t, ok := s.sent[id]; ok {
				return id, t, nil
			}
			s.order = s.order[1:] // already answered
		}
		if s.closed {
			return 0, time.Time{}, ErrClosed
		}
		s.cond.Wait()
	}
}

func (s *udpSession) settle(reqID int32) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.sent[reqID]
	if ok {
		delete(s.sent, reqID)
	}
	return t, ok
}

func (s *udpSession) Recv() (int32, []byte, time.Duration, error) {
	for {
		id, sentAt, err := s.oldest()
		if err != nil {
			return 0, nil, 0, err
		}
		if err := s.conn.SetReadDeadline(sentAt.Add(s.timeout)); err != nil {
			return 0, nil, 0, err
		}
		n, err := s.conn.Read(s.buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				// The oldest request has waited a full timeout: expire it
				// and let newer ones keep waiting.
				s.settle(id)
				return id, nil, time.Since(sentAt), ErrTimeout
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return 0, nil, 0, ErrClosed
			}
			return 0, nil, 0, err
		}
		resp := make([]byte, n)
		copy(resp, s.buf[:n])
		_, respID, pok := peekRequestID(resp)
		if !pok {
			continue // unparseable datagram; keep waiting
		}
		at, known := s.settle(respID)
		if !known {
			continue // duplicate or stale response
		}
		return respID, resp, time.Since(at), nil
	}
}

func (s *udpSession) Close() error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	return s.conn.Close()
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
		buf := make([]byte, 65535)
		for {
			n, peer, err := conn.ReadFromUDP(buf)
			if err != nil {
				return // closed
			}
			if resp := s.Agent.HandleBytes(buf[:n]); resp != nil { // HandleBytes does not retain the request
				conn.WriteToUDP(resp, peer)
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
