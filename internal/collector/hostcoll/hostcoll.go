// Package hostcoll implements the host load collector: the Remos-side
// integration of the RPS "host load sensor" (Section 3.3). It polls each
// managed host's hrProcessorLoad over SNMP, keeps per-host measurement
// history, and — in the streaming configuration of Section 2.3 — feeds a
// directly attached RPS predictor per host, making load forecasts
// available to every consumer.
package hostcoll

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"remos/internal/collector"
	"remos/internal/mib"
	"remos/internal/sim"
	"remos/internal/snmp"
	"remos/internal/topology"
)

// LoadKeyTo is the To component of the history key carrying a host's CPU
// load series (the From is the host address). Load is not a link
// quantity, so it gets a reserved pseudo-endpoint.
const LoadKeyTo = "cpu"

// LoadKey builds the history key for a host's load series.
func LoadKey(h netip.Addr) collector.HistKey {
	return collector.HistKey{From: h.String(), To: LoadKeyTo}
}

// Config configures a host load collector.
type Config struct {
	// Client issues the SNMP requests.
	Client *snmp.Client
	// Sched drives periodic sampling.
	Sched sim.Scheduler
	// Hosts are the managed hosts' addresses (their agents must serve
	// the Host Resources MIB).
	Hosts []netip.Addr
	// StreamPredict attaches a streaming RPS predictor per host (model
	// spec, e.g. "AR(16)" — the paper's host-load choice). Empty
	// disables prediction.
	StreamPredict string
}

const (
	// poll is the sampling period: the paper's "normal 1 Hz rate".
	poll = time.Second
	// streamHorizon is the forecast depth in samples, matching the
	// paper's "benefits out to at least 30 seconds" at that rate.
	streamHorizon = 30
)

// Collector is a running host load collector.
type Collector struct {
	cfg Config

	pred  *collector.Predictor // per-host load history and forecasts
	timer *sim.Timer

	mu      sync.Mutex
	samples int
}

// New creates a host load collector and starts its sampler.
func New(cfg Config) *Collector {
	pred, err := collector.NewPredictor(cfg.StreamPredict, streamHorizon)
	if err != nil {
		panic(fmt.Sprintf("hostcoll: bad StreamPredict spec %q: %v", cfg.StreamPredict, err))
	}
	c := &Collector{cfg: cfg, pred: pred}
	if cfg.Sched != nil && len(cfg.Hosts) > 0 {
		c.timer = cfg.Sched.Every(poll, c.pollOnce)
	}
	return c
}

// Name implements collector.Interface.
func (c *Collector) Name() string { return "hostload" }

// Stop halts sampling and prediction.
func (c *Collector) Stop() {
	if c.timer != nil {
		c.timer.Stop()
	}
	c.pred.Close()
}

// pollOnce samples every host's hrProcessorLoad.
func (c *Collector) pollOnce() {
	now := c.cfg.Sched.Now()
	for _, h := range c.cfg.Hosts {
		v, err := c.cfg.Client.GetOne(context.Background(), h.String(), mib.HrProcessorLoad)
		if err != nil {
			continue // unreachable this round; next round retries
		}
		c.pred.Feed(LoadKey(h), collector.Sample{T: now, Bits: float64(v.Int) / 100})
		c.mu.Lock()
		c.samples++
		c.mu.Unlock()
	}
}

// Samples reports how many load samples have been taken.
func (c *Collector) Samples() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.samples
}

// Load returns a host's most recent load sample.
func (c *Collector) Load(h netip.Addr) (float64, bool) {
	s, ok := c.pred.History().Latest(LoadKey(h))
	return s.Bits, ok
}

// Forecast returns a host's streaming load forecast, if one is fitted.
func (c *Collector) Forecast(h netip.Addr) (collector.Forecast, bool) {
	return c.pred.Forecast(LoadKey(h))
}

// Collect implements collector.Interface: host nodes only (no links —
// load is a node property), with per-host history and forecasts under
// LoadKey keys.
func (c *Collector) Collect(q collector.Query) (*collector.Result, error) {
	g := topology.NewGraph()
	hosts := q.Hosts
	if len(hosts) == 0 {
		hosts = c.cfg.Hosts
	}
	res := &collector.Result{Graph: g}
	for _, h := range hosts {
		if !c.manages(h) {
			return nil, fmt.Errorf("hostcoll: %v is not a managed host", h)
		}
		g.AddNode(topology.Node{ID: h.String(), Kind: topology.HostNode, Addr: h.String()})
		if q.WithHistory {
			if res.History == nil {
				res.History = make(map[collector.HistKey][]collector.Sample)
			}
			res.History[LoadKey(h)] = c.pred.History().Get(LoadKey(h))
		}
		if q.WithPredictions {
			if fc, ok := c.Forecast(h); ok {
				if res.Predictions == nil {
					res.Predictions = make(map[collector.HistKey]collector.Forecast)
				}
				res.Predictions[LoadKey(h)] = fc
			}
		}
	}
	return res, nil
}

func (c *Collector) manages(h netip.Addr) bool {
	for _, m := range c.cfg.Hosts {
		if m == h {
			return true
		}
	}
	return false
}
