// Package wirelesscoll implements the wireless-LAN collector the paper
// announces as under development (Section 3.1): it manages a set of
// 802.11 access points, reads their station association tables over SNMP
// (negotiated rate and signal strength per station), monitors roaming
// continuously — "a mobile node may move between basestations much more
// frequently" than wired hosts move — and answers queries with a topology
// in which each station's link capacity is its current radio rate.
package wirelesscoll

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"time"

	"remos/internal/collector"
	"remos/internal/mib"
	"remos/internal/sim"
	"remos/internal/snmp"
	"remos/internal/topology"
)

// Config configures a wireless collector.
type Config struct {
	Client *snmp.Client
	Sched  sim.Scheduler
	// APs are the access points' management addresses.
	APs []netip.Addr
	// MonitorInterval re-reads the association tables; wireless
	// defaults far shorter than wired monitoring (default 5s).
	MonitorInterval time.Duration
	// OnRoam fires when a station is seen on a different AP.
	OnRoam func(mac collector.MAC, from, to netip.Addr)
	// OnRateChange fires when a station's negotiated rate changes
	// without a roam (signal degradation).
	OnRateChange func(mac collector.MAC, ap netip.Addr, oldRate, newRate float64)
}

// station is one tracked association.
type station struct {
	mac  collector.MAC
	ap   netip.Addr
	rate float64
	rssi int
}

// Collector is a running wireless collector.
type Collector struct {
	cfg Config

	mu       sync.Mutex
	stations map[collector.MAC]station
	apNames  map[netip.Addr]string
	started  bool
	monitor  *sim.Timer
}

// New creates a wireless collector; Start walks the APs.
func New(cfg Config) *Collector {
	if cfg.MonitorInterval <= 0 {
		cfg.MonitorInterval = 5 * time.Second
	}
	return &Collector{
		cfg:      cfg,
		stations: make(map[collector.MAC]station),
		apNames:  make(map[netip.Addr]string),
	}
}

// Name implements collector.Interface.
func (c *Collector) Name() string { return "wireless" }

// Start reads every AP's association table and begins roam monitoring.
func (c *Collector) Start() error {
	if err := c.sweep(false); err != nil {
		return err
	}
	c.mu.Lock()
	c.started = true
	c.mu.Unlock()
	if c.cfg.Sched != nil {
		c.monitor = c.cfg.Sched.Every(c.cfg.MonitorInterval, func() {
			c.sweep(true) // errors tolerated; next sweep retries
		})
	}
	return nil
}

// Stop halts monitoring.
func (c *Collector) Stop() {
	if c.monitor != nil {
		c.monitor.Stop()
	}
}

// sweep reads all association tables, updating the database and firing
// roam/rate events when notify is set.
func (c *Collector) sweep(notify bool) error {
	fresh := make(map[collector.MAC]station)
	for _, apAddr := range c.cfg.APs {
		a := apAddr.String()
		if v, err := c.cfg.Client.GetOne(context.Background(), a, mib.SysName); err == nil {
			c.mu.Lock()
			c.apNames[apAddr] = string(v.Bytes)
			c.mu.Unlock()
		}
		rates := map[collector.MAC]float64{}
		err := c.cfg.Client.BulkWalk(context.Background(), a, mib.WlanStaRate, 16, func(o snmp.OID, v snmp.Value) bool {
			if mac, ok := collector.MACFromOID(o); ok {
				rates[mac] = float64(v.Int)
			}
			return true
		})
		if err != nil {
			return fmt.Errorf("wirelesscoll: walking %v: %w", apAddr, err)
		}
		rssis := map[collector.MAC]int{}
		err = c.cfg.Client.BulkWalk(context.Background(), a, mib.WlanStaRSSI, 16, func(o snmp.OID, v snmp.Value) bool {
			if mac, ok := collector.MACFromOID(o); ok {
				rssis[mac] = int(v.Int)
			}
			return true
		})
		if err != nil {
			return fmt.Errorf("wirelesscoll: walking %v: %w", apAddr, err)
		}
		for mac, rate := range rates {
			fresh[mac] = station{mac: mac, ap: apAddr, rate: rate, rssi: rssis[mac]}
		}
	}

	c.mu.Lock()
	old := c.stations
	c.stations = fresh
	c.mu.Unlock()
	if !notify {
		return nil
	}
	for mac, st := range fresh {
		prev, known := old[mac]
		switch {
		case !known:
			// Newly associated; no event defined.
		case prev.ap != st.ap:
			if c.cfg.OnRoam != nil {
				c.cfg.OnRoam(mac, prev.ap, st.ap)
			}
		case prev.rate != st.rate:
			if c.cfg.OnRateChange != nil {
				c.cfg.OnRateChange(mac, st.ap, prev.rate, st.rate)
			}
		}
	}
	return nil
}

// Locate returns the AP a station is associated with.
func (c *Collector) Locate(mac collector.MAC) (netip.Addr, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.stations[mac]
	return st.ap, ok
}

// Rate returns a station's current negotiated rate in bits per second.
func (c *Collector) Rate(mac collector.MAC) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.stations[mac]
	return st.rate, ok
}

// Stations lists all tracked stations in stable order.
func (c *Collector) Stations() []collector.MAC {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]collector.MAC, 0, len(c.stations))
	for mac := range c.stations {
		out = append(out, mac)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// StationID renders a station's graph node ID (same convention as the
// Bridge Collector).
func StationID(mac collector.MAC) string { return "st:" + mac.String() }

// Collect implements collector.Interface: access points and their
// stations, each station link carrying the radio rate as capacity.
// Latency is the airtime delay; utilization of the radio medium is not
// individually measurable, which is precisely why the rate matters.
func (c *Collector) Collect(q collector.Query) (*collector.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		return nil, fmt.Errorf("wirelesscoll: not started")
	}
	g := topology.NewGraph()
	for _, apAddr := range c.cfg.APs {
		g.AddNode(topology.Node{ID: apAddr.String(), Kind: topology.SwitchNode, Addr: apAddr.String()})
	}
	for _, st := range c.stations {
		g.AddNode(topology.Node{ID: StationID(st.mac), Kind: topology.HostNode})
		if _, err := g.AddLink(topology.Link{
			From:     StationID(st.mac),
			To:       st.ap.String(),
			Capacity: st.rate,
			Latency:  2 * time.Millisecond,
		}); err != nil {
			return nil, err
		}
	}
	return &collector.Result{Graph: g}, nil
}
