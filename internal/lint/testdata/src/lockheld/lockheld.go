// The lockheld fixture: nothing may block while a mutex is held, in any
// package.
package lockheld

import (
	"net"
	"sync"
	"time"
)

type guard struct {
	mu   sync.Mutex
	ch   chan int
	done chan struct{}
	wg   sync.WaitGroup
	n    int
}

func sendUnderLock(g *guard) {
	g.mu.Lock()
	g.ch <- 1 // want `channel send while holding g\.mu`
	g.mu.Unlock()
}

func recvUnderLock(g *guard) {
	g.mu.Lock()
	defer g.mu.Unlock()
	<-g.done // want `channel receive while holding g\.mu`
}

func selectUnderLock(g *guard) {
	g.mu.Lock()
	select { // want `select without default while holding g\.mu`
	case v := <-g.ch:
		g.n = v
	case <-g.done:
	}
	g.mu.Unlock()
}

// selectDefault never parks the goroutine: legal.
func selectDefault(g *guard) {
	g.mu.Lock()
	select {
	case g.ch <- 1:
	default:
	}
	g.mu.Unlock()
}

func waitUnderLock(g *guard) {
	g.mu.Lock()
	g.wg.Wait() // want `WaitGroup\.Wait while holding g\.mu`
	g.mu.Unlock()
}

func dialUnderLock(g *guard) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	conn, err := net.Dial("tcp", "localhost:0") // want `net\.Dial while holding g\.mu`
	if err == nil {
		conn.Close() // Close completes locally: legal
	}
	return err
}

func sleepUnderLock(g *guard) {
	g.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while holding g\.mu`
	g.mu.Unlock()
}

type other struct{ mu sync.Mutex }

// nestedUnderLock does not block: nesting is lockorder's business, and
// this one lies on no cycle.
func nestedUnderLock(g *guard, o *other) {
	g.mu.Lock()
	o.mu.Lock()
	o.mu.Unlock()
	g.mu.Unlock()
}

// blockingHelper parks; calling it under the lock is as bad as the
// direct op.
func blockingHelper(g *guard) { <-g.done }

func callUnderLock(g *guard) {
	g.mu.Lock()
	defer g.mu.Unlock()
	blockingHelper(g) // want `call to blockingHelper may block \(channel receive`
}

// launchUnderLock: the goroutine body runs outside the critical
// section; only the launch happens here. Legal.
func launchUnderLock(g *guard) {
	g.mu.Lock()
	go func() {
		<-g.done
	}()
	g.mu.Unlock()
}

// closureUnderLock: a bound literal's blocking op reaches its call
// sites through the local call graph.
func closureUnderLock(g *guard) {
	wait := func() { <-g.done }
	g.mu.Lock()
	wait() // want `call to wait may block \(channel receive`
	g.mu.Unlock()
}

// unlockEndsSection: ops after the unlock are free.
func unlockEndsSection(g *guard) {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
	<-g.done
}
