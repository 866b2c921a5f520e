package benchcoll

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"remos/internal/conc"
	"remos/internal/netsim"
	"remos/internal/sim"
)

// NetsimProber measures through the network emulator: a probe is an
// elastic (or demand-capped) fluid flow whose achieved throughput is the
// benchmark result. Live deployments use TCPProber instead.
type NetsimProber struct {
	Net *netsim.Network
}

// Start implements Prober.
func (p *NetsimProber) Start(src, dst netip.Addr, demand float64) (func() float64, error) {
	sd := p.Net.DeviceByIP(src)
	dd := p.Net.DeviceByIP(dst)
	if sd == nil || dd == nil {
		return nil, fmt.Errorf("netsim prober: unknown endpoint %v or %v", src, dst)
	}
	f, err := p.Net.StartFlow(sd, dd, netsim.FlowSpec{Demand: demand})
	if err != nil {
		return nil, err
	}
	return func() float64 {
		bytes, active := f.Stop()
		if active <= 0 {
			return 0
		}
		return bytes * 8 / active.Seconds()
	}, nil
}

// Delay implements Prober from the emulator's path delay.
func (p *NetsimProber) Delay(src, dst netip.Addr) (time.Duration, error) {
	sd := p.Net.DeviceByIP(src)
	dd := p.Net.DeviceByIP(dst)
	if sd == nil || dd == nil {
		return 0, fmt.Errorf("netsim prober: unknown endpoint")
	}
	return p.Net.PathDelay(sd, dd)
}

// Jitter implements JitterProber from the emulator's path delay
// variation (what a live prober estimates from repeated delay samples).
func (p *NetsimProber) Jitter(src, dst netip.Addr) (time.Duration, error) {
	sd := p.Net.DeviceByIP(src)
	dd := p.Net.DeviceByIP(dst)
	if sd == nil || dd == nil {
		return 0, fmt.Errorf("netsim prober: unknown endpoint")
	}
	_, jitter, err := p.Net.PathDelayJitter(sd, dd)
	return jitter, err
}

// Sink is the receiving half of a live TCP benchmark: it accepts
// connections and discards whatever arrives, like the sink side of
// Netperf's TCP_STREAM test. Each site's Benchmark Collector runs one.
type Sink struct {
	ln *conc.Listener
}

// ListenAndServe binds the address ("host:port", port 0 for ephemeral)
// and serves until Close. It returns the bound address.
func (s *Sink) ListenAndServe(addr string) (string, error) {
	ln, err := conc.Listen(addr, func(conn net.Conn) {
		buf := make([]byte, 64*1024)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	})
	if err != nil {
		return "", err
	}
	s.ln = ln
	return ln.Addr(), nil
}

// Close stops the sink: the listener and every accepted connection are
// closed, and Close returns once their discard loops have exited.
func (s *Sink) Close() error { return s.ln.Close() }

// TCPProber measures over real sockets: Start connects to the peer's Sink
// and writes as fast as permitted until stopped, reporting achieved
// throughput. PortOf maps a peer address to its sink's TCP port.
type TCPProber struct {
	// PortOf returns the sink port for a peer address; nil means 7 (the
	// historical discard port).
	PortOf func(netip.Addr) int
	// Sched supplies the clock and pacing timers. Nil selects the real
	// runtime clock (sim.Real): live deployments measure wall time,
	// while emulated runs inject their discrete-event scheduler so
	// probe timing is deterministic.
	Sched sim.Scheduler
}

// sched resolves the clock, defaulting to real time.
func (p *TCPProber) sched() sim.Scheduler {
	if p.Sched != nil {
		return p.Sched
	}
	return sim.Real{}
}

// sleepOn blocks the caller for d of the scheduler's time.
func sleepOn(s sim.Scheduler, d time.Duration) {
	if d <= 0 {
		return
	}
	ch := make(chan struct{})
	s.After(d, func() { close(ch) })
	<-ch
}

// Start implements Prober over TCP.
func (p *TCPProber) Start(src, dst netip.Addr, demand float64) (func() float64, error) {
	port := 7
	if p.PortOf != nil {
		port = p.PortOf(dst)
	}
	conn, err := net.DialTimeout("tcp", fmt.Sprintf("%s:%d", dst, port), 5*time.Second)
	if err != nil {
		return nil, err
	}
	sched := p.sched()
	var mu sync.Mutex
	var sent int64
	stopCh := make(chan struct{})
	done := make(chan struct{})
	start := sched.Now()
	go func() {
		defer close(done)
		defer conn.Close()
		buf := make([]byte, 64*1024)
		for {
			select {
			case <-stopCh:
				return
			default:
			}
			n, err := conn.Write(buf)
			mu.Lock()
			sent += int64(n)
			mu.Unlock()
			if err != nil {
				return
			}
			if demand > 0 {
				// Pace to the demanded rate.
				mu.Lock()
				ahead := time.Duration(float64(sent*8)/demand*float64(time.Second)) - sched.Now().Sub(start)
				mu.Unlock()
				if ahead > 0 {
					sleepOn(sched, ahead)
				}
			}
		}
	}()
	return func() float64 {
		close(stopCh)
		<-done
		elapsed := sched.Now().Sub(start)
		mu.Lock()
		defer mu.Unlock()
		if elapsed <= 0 {
			return 0
		}
		return float64(sent) * 8 / elapsed.Seconds()
	}, nil
}

// Delay implements Prober with a TCP connect-time estimate.
func (p *TCPProber) Delay(src, dst netip.Addr) (time.Duration, error) {
	port := 7
	if p.PortOf != nil {
		port = p.PortOf(dst)
	}
	sched := p.sched()
	start := sched.Now()
	conn, err := net.DialTimeout("tcp", fmt.Sprintf("%s:%d", dst, port), 5*time.Second)
	if err != nil {
		return 0, err
	}
	conn.Close()
	return sched.Now().Sub(start) / 2, nil
}
