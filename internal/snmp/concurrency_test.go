package snmp

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// The lock-step concurrency contract: a Client's concurrent callers
// overlap their exchanges with one agent, because the Transport is safe
// for concurrent use and runs each exchange on its caller's goroutine (or
// socket). Nothing between caller and agent serialises them.

// counterView serves n Counter32 objects, the i-th (from 1) holding 100*i.
func counterView(t *testing.T, n int) *Table {
	t.Helper()
	binds := map[string]Value{}
	for i := 1; i <= n; i++ {
		binds[counterOID(i).String()] = Counter(uint64(100 * i))
	}
	tab, err := NewStaticView(binds)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func counterOID(i int) OID { return MustParseOID(fmt.Sprintf("1.3.6.1.2.1.2.2.1.10.%d", i)) }

// rendezvousView holds every request inside the agent until all the
// expected ones are there at once: a client or transport that serialised
// one agent's exchanges never gets past it.
type rendezvousView struct {
	tab     *Table
	arrived sync.WaitGroup
}

func (v *rendezvousView) Table() *Table {
	v.arrived.Done()
	v.arrived.Wait()
	return v.tab
}

// getEach runs one GetOne per object 1..n from its own goroutine and
// checks each caller got its own value back.
func getEach(t *testing.T, c *Client, addr string, n int, limit time.Duration) {
	t.Helper()
	errs := make(chan error, n)
	for i := 1; i <= n; i++ {
		go func(i int) {
			v, err := c.GetOne(context.Background(), addr, counterOID(i))
			if err == nil && v.Int != int64(100*i) {
				err = fmt.Errorf("caller %d got %d, want %d (answers crossed)", i, v.Int, 100*i)
			}
			errs <- err
		}(i)
	}
	deadline := time.After(limit)
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("%d of %d concurrent exchanges with one agent still out after %v", n-i, n, limit)
		}
	}
}

func TestLockStepConcurrentGets(t *testing.T) {
	const n = 16
	view := &rendezvousView{tab: counterView(t, n)}
	view.arrived.Add(n)
	c, reg := newInProcClient(t, "public")
	c.Meter = &Meter{}
	reg.Register("a", &Agent{Community: "public", View: view})
	getEach(t, c, "a", n, 10*time.Second)
	if reqs, vbs, _ := c.Meter.Counts(); reqs != n || vbs != n {
		t.Fatalf("meter = %d exchanges / %d varbinds, want %d / %d", reqs, vbs, n, n)
	}
}

// slowAgent answers each datagram after delay, each on its own goroutine,
// like an agent a round trip away.
type slowAgent struct {
	agent *Agent
	delay time.Duration
	conn  *net.UDPConn
	wg    sync.WaitGroup
}

func (s *slowAgent) listen(t *testing.T) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s.conn = conn
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		buf := make([]byte, 65535)
		for {
			n, peer, err := conn.ReadFromUDP(buf)
			if err != nil {
				return // closed
			}
			req := append([]byte(nil), buf[:n]...)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				time.Sleep(s.delay)
				if resp := s.agent.HandleBytes(req); resp != nil {
					conn.WriteToUDP(resp, peer)
					releaseDatagram(resp)
				}
			}()
		}
	}()
	t.Cleanup(func() {
		conn.Close()
		s.wg.Wait()
	})
	return conn.LocalAddr().String()
}

// TestLockStepOverlapsOverUDP: eight lock-step exchanges with one agent
// 50 ms away finish together in well under the 400 ms they would take
// one after another, over real sockets.
func TestLockStepOverlapsOverUDP(t *testing.T) {
	const n, delay = 8, 50 * time.Millisecond
	srv := &slowAgent{agent: &Agent{Community: "public", View: counterView(t, n)}, delay: delay}
	addr := srv.listen(t)
	c := NewClient(&UDP{Timeout: 2 * time.Second}, "public")
	c.Meter = &Meter{}
	start := time.Now()
	getEach(t, c, addr, n, 10*time.Second)
	if took := time.Since(start); took >= 4*delay {
		t.Fatalf("%d concurrent exchanges with a %v agent took %v, want under %v", n, delay, took, 4*delay)
	}
	if reqs, _, _ := c.Meter.Counts(); reqs != n {
		t.Fatalf("meter = %d exchanges, want %d (a retry means a lost datagram)", reqs, n)
	}
}
