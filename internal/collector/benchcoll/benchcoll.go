// Package benchcoll implements the Remos Benchmark Collector (Section
// 3.1.3): where SNMP access ends — across the wide area — it falls back
// on explicit benchmarking, periodically exchanging measurement traffic
// with the benchmark collectors at peer sites and reporting the achieved
// bandwidth. Results are cached and served with history, and the
// wide-area network between each site pair is represented by a virtual
// node, since its internal structure is unobservable.
package benchcoll

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"remos/internal/collector"
	"remos/internal/sim"
	"remos/internal/topology"
)

// Prober runs measurement traffic between two endpoints. The emulated
// implementation drives netsim flows; the live implementation
// (TCPProber) writes bytes over real sockets.
type Prober interface {
	// Start begins a measurement transfer; the returned stop function
	// ends it and reports the achieved bandwidth in bits per second.
	Start(src, dst netip.Addr, demand float64) (stop func() (bitsPerSec float64), err error)
	// Delay estimates one-way latency between the endpoints.
	Delay(src, dst netip.Addr) (time.Duration, error)
}

// JitterProber is implemented by probers that can also measure delay
// variation (the §6.2 jitter metric). Collectors use it when available.
type JitterProber interface {
	// Jitter estimates the standard deviation of one-way delay.
	Jitter(src, dst netip.Addr) (time.Duration, error)
}

// Peer names a remote site's benchmark endpoint.
type Peer struct {
	Name string
	Host netip.Addr
}

// Config configures a Benchmark Collector.
type Config struct {
	// LocalName and LocalHost identify this site's endpoint.
	LocalName string
	LocalHost netip.Addr
	// Peers are the remote endpoints to measure against.
	Peers []Peer
	// Prober runs the measurement traffic.
	Prober Prober
	// Sched drives periodic measurement.
	Sched sim.Scheduler
	// Interval between measurement rounds (default 30s).
	Interval time.Duration
	// ProbeDuration is how long each probe transfers (default 5s).
	ProbeDuration time.Duration
	// ProbeReverse runs probes from the peer toward the local endpoint,
	// measuring the download direction. The benchmark collectors
	// "exchange data", so either direction is available; server
	// selection cares about peer->local.
	ProbeReverse bool
}

// Collector is a running Benchmark Collector.
type Collector struct {
	cfg Config

	mu      sync.Mutex
	latest  map[string]measurement // peer name -> latest
	hist    *collector.History
	rounds  int
	current int // index of next peer to probe
	timer   *sim.Timer
}

type measurement struct {
	peer   Peer
	bits   float64
	delay  time.Duration
	jitter time.Duration
	at     time.Time
}

// New creates a Benchmark Collector and starts its periodic probing.
func New(cfg Config) *Collector {
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.ProbeDuration <= 0 {
		cfg.ProbeDuration = 5 * time.Second
	}
	c := &Collector{
		cfg:    cfg,
		latest: make(map[string]measurement),
		hist:   collector.NewHistory(0),
	}
	if cfg.Sched != nil && len(cfg.Peers) > 0 {
		// Probe one peer per interval, round-robin, so probe traffic
		// to different sites does not self-interfere.
		c.timer = cfg.Sched.Every(cfg.Interval, c.probeNext)
	}
	return c
}

// Name implements collector.Interface.
func (c *Collector) Name() string { return "benchmark-" + c.cfg.LocalName }

// Stop halts periodic probing.
func (c *Collector) Stop() {
	if c.timer != nil {
		c.timer.Stop()
	}
}

// probeNext measures the next peer in round-robin order.
func (c *Collector) probeNext() {
	c.mu.Lock()
	peer := c.cfg.Peers[c.current%len(c.cfg.Peers)]
	c.current++
	c.mu.Unlock()
	c.ProbePeer(peer)
}

// startProbe begins one measurement toward a peer, honoring the probe
// direction; the returned stop function reports achieved bits/s.
func (c *Collector) startProbe(peer Peer) (func() float64, error) {
	src, dst := c.cfg.LocalHost, peer.Host
	if c.cfg.ProbeReverse {
		src, dst = dst, src
	}
	return c.cfg.Prober.Start(src, dst, 0) // elastic: the probe takes its full fair share
}

// record stores one completed measurement.
func (c *Collector) record(peer Peer, bits float64) {
	delay, _ := c.cfg.Prober.Delay(c.cfg.LocalHost, peer.Host)
	var jitter time.Duration
	if jp, ok := c.cfg.Prober.(JitterProber); ok {
		jitter, _ = jp.Jitter(c.cfg.LocalHost, peer.Host)
	}
	now := c.cfg.Sched.Now()
	c.mu.Lock()
	c.latest[peer.Name] = measurement{peer: peer, bits: bits, delay: delay, jitter: jitter, at: now}
	c.rounds++
	c.mu.Unlock()
	c.hist.Add(collector.HistKey{From: c.cfg.LocalHost.String(), To: peer.Host.String()},
		collector.Sample{T: now, Bits: bits})
}

// ProbePeer runs one measurement against a peer immediately. The transfer
// runs for ProbeDuration on the scheduler; the result lands in the cache
// when it completes.
func (c *Collector) ProbePeer(peer Peer) {
	stop, err := c.startProbe(peer)
	if err != nil {
		return // unreachable peer; next round retries
	}
	c.cfg.Sched.After(c.cfg.ProbeDuration, func() {
		c.record(peer, stop())
	})
}

// MeasureAllParallel probes every peer concurrently for the given window,
// driving a simulated scheduler until the results are recorded. Parallel
// probing answers a multi-candidate query in one window — the on-demand
// measurement behind the mirrored-server experiments.
func (c *Collector) MeasureAllParallel(window time.Duration) error {
	s, ok := c.cfg.Sched.(*sim.Sim)
	if !ok {
		return fmt.Errorf("benchcoll: MeasureAllParallel needs a simulated scheduler")
	}
	if window <= 0 {
		window = c.cfg.ProbeDuration
	}
	type running struct {
		peer Peer
		stop func() float64
	}
	var rs []running
	for _, p := range c.cfg.Peers {
		if stop, err := c.startProbe(p); err == nil {
			rs = append(rs, running{peer: p, stop: stop})
		}
	}
	s.RunFor(window)
	for _, r := range rs {
		c.record(r.peer, r.stop())
	}
	return nil
}

// MeasureAll probes every peer once, synchronously driving a simulated
// scheduler until the results are in. It requires a *sim.Sim scheduler.
func (c *Collector) MeasureAll() error {
	s, ok := c.cfg.Sched.(*sim.Sim)
	if !ok {
		return fmt.Errorf("benchcoll: MeasureAll needs a simulated scheduler")
	}
	for _, p := range c.cfg.Peers {
		before := c.Rounds()
		c.ProbePeer(p)
		for c.Rounds() == before {
			if !s.Step() {
				return fmt.Errorf("benchcoll: simulation ran dry probing %s", p.Name)
			}
		}
	}
	return nil
}

// Rounds returns how many probe results have been recorded.
func (c *Collector) Rounds() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rounds
}

// Latest returns the most recent measurement toward the named peer.
func (c *Collector) Latest(peerName string) (bits float64, at time.Time, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.latest[peerName]
	return m.bits, m.at, ok
}

// History exposes the measurement history store.
func (c *Collector) History() *collector.History { return c.hist }

// Collect implements collector.Interface: the answer is a star of virtual
// wide-area nodes — for each measured peer relevant to the query, local
// endpoint — vWAN — peer endpoint, with the measured bandwidth as the
// virtual links' capacity.
func (c *Collector) Collect(q collector.Query) (*collector.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	relevant := func(p Peer) bool {
		if len(q.Hosts) == 0 {
			return true
		}
		for _, h := range q.Hosts {
			if h == p.Host {
				return true
			}
		}
		return false
	}
	g := topology.NewGraph()
	localID := c.cfg.LocalHost.String()
	g.AddNode(topology.Node{ID: localID, Kind: topology.HostNode, Addr: localID})
	added := 0
	for _, p := range c.cfg.Peers {
		if !relevant(p) {
			continue
		}
		m, ok := c.latest[p.Name]
		if !ok {
			continue // not yet measured
		}
		peerID := p.Host.String()
		wanID := fmt.Sprintf("wan:%s-%s", c.cfg.LocalName, p.Name)
		g.AddNode(topology.Node{ID: peerID, Kind: topology.HostNode, Addr: peerID})
		g.AddNode(topology.Node{ID: wanID, Kind: topology.VirtualNode})
		half := m.delay / 2
		// The full measured jitter rides on one half-link so the
		// end-to-end path jitter equals the measurement exactly.
		if _, err := g.AddLink(topology.Link{
			From: localID, To: wanID, Capacity: m.bits, Latency: half, Jitter: m.jitter,
		}); err != nil {
			return nil, err
		}
		if _, err := g.AddLink(topology.Link{From: wanID, To: peerID, Capacity: m.bits, Latency: m.delay - half}); err != nil {
			return nil, err
		}
		added++
	}
	res := &collector.Result{Graph: g}
	if q.WithHistory {
		res.History = c.hist.Snapshot()
	}
	return res, nil
}
