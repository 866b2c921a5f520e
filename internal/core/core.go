// Package core assembles complete Remos deployments: given an emulated
// network divided into sites, it attaches SNMP agents to the managed
// devices, instantiates each site's SNMP, Bridge and Benchmark
// collectors, wires benchmark peers between sites, and builds a Master
// Collector per site with a directory covering every site — the
// architecture of the paper's Figure 2. Experiments, examples and
// integration tests all build on it.
package core

import (
	"fmt"
	"net/netip"
	"time"

	"remos/internal/collector"
	"remos/internal/collector/benchcoll"
	"remos/internal/collector/bridgecoll"
	"remos/internal/collector/master"
	"remos/internal/collector/snmpcoll"
	"remos/internal/directory"
	"remos/internal/mib"
	"remos/internal/netsim"
	"remos/internal/obs"
	"remos/internal/sim"
	"remos/internal/snmp"
)

// SiteSpec describes one site to be wired.
type SiteSpec struct {
	// Name identifies the site ("cmu", "eth", ...).
	Name string
	// Switches are the site's managed bridges, handed to the Bridge
	// Collector. Empty means no bridge collector (virtual switches are
	// used for host attachments instead).
	Switches []*netsim.Device
	// BenchHost is the host running the site's Benchmark Collector.
	BenchHost *netsim.Device
	// Prefixes are the IP networks this site is responsible for. Empty
	// derives them from the switches' and bench host's segments.
	Prefixes []netip.Prefix
	// PollInterval overrides the SNMP Collector's poll period.
	PollInterval time.Duration
	// BenchInterval and BenchDuration override benchmark pacing.
	BenchInterval time.Duration
	BenchDuration time.Duration
	// BenchReverse probes peer->local (the download direction).
	BenchReverse bool
	// StreamPredict attaches collector-side streaming predictors to
	// every monitored link (an RPS model spec such as "AR(16)").
	StreamPredict string
}

// Site is one wired site.
type Site struct {
	Name   string
	Spec   SiteSpec
	SNMP   *snmpcoll.Collector
	Bridge *bridgecoll.Collector
	Bench  *benchcoll.Collector
	Master *master.Master

	prefixes []netip.Prefix
}

// Prefixes returns the site's responsibility.
func (s *Site) Prefixes() []netip.Prefix { return s.prefixes }

// Deployment is a full multi-site Remos installation over one emulated
// network.
type Deployment struct {
	Sim      *sim.Sim
	Net      *netsim.Network
	Registry *snmp.Registry
	// Transport is the management-plane transport collectors use.
	Transport snmp.Transport
	Sites     map[string]*Site
	// Directory is the SLP-like collector directory; Finish populates
	// it and every site's Master consults it per query.
	Directory *directory.Service

	siteOrder []string
	opt       Options
	refresh   *sim.Timer
}

// Options tunes deployment-wide behaviour.
type Options struct {
	// Parallelism bounds concurrent work in every collector layer:
	// master fan-out, SNMP device walks and polling, and bridge walks.
	// 0 selects GOMAXPROCS; 1 restores the fully serial pipeline.
	Parallelism int
	// MaxVarBinds bounds varbinds per polling Get PDU (0 = default 24).
	MaxVarBinds int
	// Obs, when set, instruments every collector layer (SNMP exchange
	// counters, master fan-out counters, per-collector query counters)
	// into one registry. Nil disables instrumentation.
	Obs *obs.Registry
}

const (
	// snmpLatency models the management-plane round trip.
	snmpLatency = 2 * time.Millisecond
	// community is the SNMP community every agent and collector uses.
	community = "public"
)

// NewDeployment attaches SNMP agents to every managed device and prepares
// the shared transport. Call AddSite for each site, then Finish.
// AssignSubnets and ComputeRoutes must already have run on the network.
func NewDeployment(s *sim.Sim, n *netsim.Network, opt Options) *Deployment {
	reg := snmp.NewRegistry()
	mib.AttachAll(n, reg)
	tr := &snmp.InProc{
		Registry: reg,
		Latency:  func(string) time.Duration { return snmpLatency },
	}
	return &Deployment{
		Sim:       s,
		Net:       n,
		Registry:  reg,
		Transport: tr,
		Sites:     make(map[string]*Site),
		opt:       opt,
	}
}

// AddSite wires one site's collectors. Benchmark peering and masters are
// completed by Finish.
func (d *Deployment) AddSite(spec SiteSpec) (*Site, error) {
	if _, dup := d.Sites[spec.Name]; dup {
		return nil, fmt.Errorf("core: duplicate site %q", spec.Name)
	}
	site := &Site{Name: spec.Name, Spec: spec}

	// Responsibility: explicit, or derived from member devices.
	site.prefixes = spec.Prefixes
	if len(site.prefixes) == 0 {
		seen := map[netip.Prefix]bool{}
		addFrom := func(dev *netsim.Device) {
			if dev == nil {
				return
			}
			for _, ifc := range dev.Ifaces() {
				if ifc.Prefix.IsValid() && !seen[ifc.Prefix] {
					seen[ifc.Prefix] = true
					site.prefixes = append(site.prefixes, ifc.Prefix)
				}
				// Switch ports carry no prefix; look through to
				// attached stations' prefixes.
				if peer := ifc.Peer(); peer != nil && peer.Prefix.IsValid() && !seen[peer.Prefix] {
					seen[peer.Prefix] = true
					site.prefixes = append(site.prefixes, peer.Prefix)
				}
			}
		}
		for _, sw := range spec.Switches {
			addFrom(sw)
		}
		addFrom(spec.BenchHost)
	}

	// Bridge collector.
	if len(spec.Switches) > 0 {
		var addrs []netip.Addr
		for _, sw := range spec.Switches {
			addrs = append(addrs, sw.ManagementAddr())
		}
		site.Bridge = bridgecoll.New(bridgecoll.Config{
			Client:      snmp.NewClient(d.Transport, community),
			Sched:       d.Sim,
			Switches:    addrs,
			Parallelism: d.opt.Parallelism,
			Obs:         d.opt.Obs,
		})
		if err := site.Bridge.Start(); err != nil {
			return nil, fmt.Errorf("core: site %s bridge: %w", spec.Name, err)
		}
	}

	// SNMP collector.
	site.SNMP = snmpcoll.New(snmpcoll.Config{
		Name:      "snmp-" + spec.Name,
		Transport: d.Transport,
		Community: community,
		Sched:     d.Sim,
		GatewayOf: func(h netip.Addr) (netip.Addr, bool) {
			dev := d.Net.DeviceByIP(h)
			if dev == nil || !dev.Gateway.IsValid() {
				return netip.Addr{}, false
			}
			return dev.Gateway, true
		},
		ResolveMAC: func(ip netip.Addr) (collector.MAC, bool) {
			ifc := d.Net.IfaceByIP(ip)
			if ifc == nil {
				return collector.MAC{}, false
			}
			return collector.MAC(ifc.MAC), true
		},
		Bridge:        site.Bridge,
		PollInterval:  spec.PollInterval,
		StreamPredict: spec.StreamPredict,
		Parallelism:   d.opt.Parallelism,
		MaxVarBinds:   d.opt.MaxVarBinds,
		Obs:           d.opt.Obs,
	})

	d.Sites[spec.Name] = site
	d.siteOrder = append(d.siteOrder, spec.Name)
	return site, nil
}

// Finish wires benchmark collectors between all site pairs and builds a
// Master Collector per site whose directory covers every site.
func (d *Deployment) Finish() error {
	// Benchmark collectors with full peering.
	for _, name := range d.siteOrder {
		site := d.Sites[name]
		if site.Spec.BenchHost == nil {
			continue
		}
		var peers []benchcoll.Peer
		for _, other := range d.siteOrder {
			if other == name || d.Sites[other].Spec.BenchHost == nil {
				continue
			}
			peers = append(peers, benchcoll.Peer{
				Name: other,
				Host: d.Sites[other].Spec.BenchHost.Addr(),
			})
		}
		site.Bench = benchcoll.New(benchcoll.Config{
			LocalName:     name,
			LocalHost:     site.Spec.BenchHost.Addr(),
			Peers:         peers,
			Prober:        &benchcoll.NetsimProber{Net: d.Net},
			Sched:         d.Sim,
			Interval:      site.Spec.BenchInterval,
			ProbeDuration: site.Spec.BenchDuration,
			ProbeReverse:  site.Spec.BenchReverse,
		})
	}
	// Directory: every site's SNMP collector registers its
	// responsibility, SLP-style (Section 3.1.4). Masters consult the
	// directory per query, so late registrations and expiries take
	// effect without reconfiguration. A deployment using the wire
	// protocols registers endpoint adverts instead (see package
	// directory).
	d.Directory = directory.New(d.Sim)
	registerAll := func() error {
		for _, name := range d.siteOrder {
			site := d.Sites[name]
			var bench netip.Addr
			if site.Spec.BenchHost != nil {
				bench = site.Spec.BenchHost.Addr()
			}
			if err := d.Directory.Register(directory.Advert{
				Name:      name,
				Prefixes:  site.prefixes,
				Collector: site.SNMP,
				BenchHost: bench,
			}, 0); err != nil {
				return err
			}
		}
		return nil
	}
	if err := registerAll(); err != nil {
		return err
	}
	// SLP-style lifetime refresh: live collectors re-register before
	// their advertisements age out.
	d.refresh = d.Sim.Every(directory.DefaultTTL/2, func() { registerAll() })
	// Masters: one per site, all sharing the deployment directory.
	for _, name := range d.siteOrder {
		site := d.Sites[name]
		var wide collector.Interface
		if site.Bench != nil {
			wide = site.Bench
		}
		site.Master = master.New(master.Config{
			Name:        "master-" + name,
			Directory:   d.Directory,
			WideArea:    wide,
			Parallelism: d.opt.Parallelism,
			Obs:         d.opt.Obs,
		})
	}
	return nil
}

// MeasureAllBenchmarks drives every site's benchmark collector through one
// full measurement round (simulated time advances).
func (d *Deployment) MeasureAllBenchmarks() error {
	for _, name := range d.siteOrder {
		if b := d.Sites[name].Bench; b != nil {
			if err := b.MeasureAll(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stop halts all periodic activity.
func (d *Deployment) Stop() {
	if d.refresh != nil {
		d.refresh.Stop()
	}
	for _, s := range d.Sites {
		if s.SNMP != nil {
			s.SNMP.Stop()
		}
		if s.Bridge != nil {
			s.Bridge.Stop()
		}
		if s.Bench != nil {
			s.Bench.Stop()
		}
	}
}
