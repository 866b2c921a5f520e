package conc

import (
	"net"
	"sync"
)

// Listener owns one TCP accept loop and every connection it accepts:
// each connection is served on its own goroutine, and Close tears down
// the listening socket and every live connection, then waits for the
// goroutines to exit — so a server built on it leaks neither a goroutine
// nor a descriptor past Close, whatever its peers are doing.
type Listener struct {
	ln    net.Listener
	serve func(net.Conn)
	wg    sync.WaitGroup // the accept loop and every serve call

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // live connections, for Close
	closed bool
}

// Listen binds addr ("127.0.0.1:0" for an ephemeral port) and serves
// every accepted connection with serve in the background. The
// connection is closed when serve returns; serve must return once its
// connection is closed under it, which is how Close stops it.
func Listen(addr string, serve func(net.Conn)) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{ln: ln, serve: serve, conns: make(map[net.Conn]struct{})}
	l.wg.Add(1)
	go l.accept()
	return l, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

func (l *Listener) accept() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go func() {
			defer l.wg.Done()
			l.serve(conn)
			conn.Close()
			l.mu.Lock()
			delete(l.conns, conn)
			l.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every live connection and returns once
// the accept loop and every serve call have exited. A nil Listener (a
// server that never started) closes as a no-op.
func (l *Listener) Close() error {
	if l == nil {
		return nil
	}
	err := l.ln.Close()
	l.mu.Lock()
	l.closed = true
	for conn := range l.conns {
		conn.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
	return err
}
