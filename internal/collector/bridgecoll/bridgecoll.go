// Package bridgecoll implements the Remos Bridge Collector: it discovers
// the level-2 topology of a switched Ethernet LAN from the forwarding
// databases in each bridge's Bridge-MIB (Section 3.1.2, after Lowekamp et
// al., SIGCOMM 2001), serves level-2 path queries to the SNMP Collector,
// and continuously monitors host locations so that stations moving between
// switches are tracked.
package bridgecoll

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"time"

	"remos/internal/collector"
	"remos/internal/conc"
	"remos/internal/mib"
	"remos/internal/obs"
	"remos/internal/sim"
	"remos/internal/snmp"
)

// Config configures a Bridge Collector.
type Config struct {
	// Client issues the SNMP requests.
	Client *snmp.Client
	// Sched drives periodic host-location monitoring.
	Sched sim.Scheduler
	// Switches are the management addresses of the bridges to manage
	// (in a real deployment these come from configuration or SLP).
	Switches []netip.Addr
	// MonitorInterval is the period of host-location verification;
	// 0 disables monitoring.
	MonitorInterval time.Duration
	// OnMove, if set, is called when monitoring detects that a station
	// changed its attachment point.
	OnMove func(mac collector.MAC, from, to netip.Addr)
	// Parallelism bounds how many bridges are walked concurrently during
	// startup and station searches. 0 selects GOMAXPROCS; 1 restores the
	// serial walk.
	Parallelism int
	// Obs, when set, instruments the collector: its SNMP client's
	// exchange counters and a bridge-walk counter land in the registry.
	Obs *obs.Registry
}

// switchInfo is everything learned about one bridge.
type switchInfo struct {
	addr     netip.Addr
	id       string // addr rendered once: the bridge's graph node ID
	name     string
	numPorts int
	fdb      map[collector.MAC]int // station -> port
	perPort  map[int][]collector.MAC
	speed    map[int]float64 // port -> bits/s
	mgmtMAC  collector.MAC   // this bridge's own station MAC, if known
}

// swLink is one inferred switch-to-switch connection.
type swLink struct {
	a     netip.Addr
	aPort int
	b     netip.Addr
	bPort int
}

// reversed returns the same connection seen from the other end.
func (l swLink) reversed() swLink {
	return swLink{a: l.b, aPort: l.bPort, b: l.a, bPort: l.aPort}
}

// station is one end host/router attachment.
type station struct {
	mac   collector.MAC
	id    string // StationID(mac), rendered once when the station is learned
	sw    int32  // the switch it is attached to, by number in the tree
	port  int
	speed float64 // of that port
}

// treeSwitch is one switch of the numbered bridge tree, with its uplink:
// the link toward the root of its broadcast domain.
type treeSwitch struct {
	addr   netip.Addr
	id     string // addr rendered once: the bridge's graph node ID
	parent int32  // number of the switch the uplink leads to; -1 at a root
	depth  int32
	domain int32 // broadcast-domain id, from 1
	// The uplink's two ends: this switch's port and the parent's, with
	// their speeds.
	upPort, parentPort   int
	upSpeed, parentSpeed float64
}

// Collector is a running Bridge Collector.
type Collector struct {
	cfg Config

	mu       sync.Mutex
	switches map[netip.Addr]*switchInfo
	links    []swLink
	// The database path queries read, renumbered by every inference:
	// tree holds the switches in address order, stations the stations in
	// MAC order. A station's number is its position; stationAt finds it.
	// The level-2 links are numbered too: station s's attachment is link
	// s, switch k's uplink is link len(stations)+k.
	tree      []treeSwitch
	stations  []station
	stationAt map[collector.MAC]int32
	gen       Generation // the numbering's
	started   bool
	monitor   *sim.Timer

	// walkRequests counts full FDB walks, for cost accounting in tests.
	walkRequests int

	mWalks *obs.Counter
}

// New creates a Bridge Collector; call Start to walk the bridges and build
// the topology database.
func New(cfg Config) *Collector {
	if cfg.Client != nil {
		cfg.Client.Instrument(cfg.Obs)
	}
	return &Collector{
		cfg:       cfg,
		switches:  make(map[netip.Addr]*switchInfo),
		stationAt: make(map[collector.MAC]int32),
		mWalks: cfg.Obs.Counter("remos_bridge_walks_total",
			"full bridge FDB walks performed"),
	}
}

// Name implements collector.Interface.
func (c *Collector) Name() string { return "bridge" }

// Start walks every configured bridge's forwarding database, infers the
// level-2 topology, and begins location monitoring. "At startup, the
// Bridge Collector queries all components of a bridged Ethernet to
// determine its topology, then stores this information in a database."
// The bridges are walked in parallel (bounded by Config.Parallelism);
// inference runs once over the committed set.
func (c *Collector) Start() error {
	if err := c.rewalkAll(); err != nil {
		return err
	}
	c.mu.Lock()
	c.started = true
	c.mu.Unlock()
	if c.cfg.MonitorInterval > 0 && c.cfg.Sched != nil {
		c.monitor = c.cfg.Sched.Every(c.cfg.MonitorInterval, c.monitorOnce)
	}
	return nil
}

// rewalkAll walks every configured bridge concurrently outside the mutex
// (the SNMP client is safe for concurrent use), then commits the new
// forwarding databases and re-runs topology inference under it. Walk
// errors surface for the lowest-index switch, independent of completion
// order.
func (c *Collector) rewalkAll() error {
	infos := make([]*switchInfo, len(c.cfg.Switches))
	err := conc.ForEach(len(c.cfg.Switches), c.cfg.Parallelism, func(i int) error {
		si, err := c.walkSwitch(c.cfg.Switches[i])
		if err != nil {
			return fmt.Errorf("bridgecoll: walking %v: %w", c.cfg.Switches[i], err)
		}
		infos[i] = si
		return nil
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.walkRequests += len(infos)
	c.mWalks.Add(int64(len(infos)))
	for i, si := range infos {
		c.switches[c.cfg.Switches[i]] = si
	}
	return c.inferTopologyLocked()
}

// Stop halts location monitoring.
func (c *Collector) Stop() {
	if c.monitor != nil {
		c.monitor.Stop()
	}
}

// walkSwitch reads one bridge's Bridge-MIB and interface table in one
// lock-step walk: the system and bridge scalars ride the first GetBulk as
// non-repeaters, and the short ifSpeed column is dropped from the requests
// once it leaves its root while the forwarding database walks on. It takes
// no locks and touches no collector state, so callers may walk many
// bridges concurrently and commit the results under c.mu afterwards
// (walk accounting happens at commit).
func (c *Collector) walkSwitch(addr netip.Addr) (*switchInfo, error) {
	si := &switchInfo{
		addr:    addr,
		id:      addr.String(),
		fdb:     make(map[collector.MAC]int),
		perPort: make(map[int][]collector.MAC),
		speed:   make(map[int]float64),
	}
	hasPorts := false
	err := c.cfg.Client.BulkWalkColumns(context.Background(), addr.String(),
		[]snmp.OID{mib.SysName, mib.Dot1dBaseNumPorts, mib.Dot1dBaseBridgeAddr},
		[]snmp.OID{mib.Dot1dTpFdbPort, mib.IfSpeed}, 32,
		func(col int, o snmp.OID, val snmp.Value) bool {
			switch col {
			case -1: // sysName
				si.name = string(val.Bytes)
			case -2: // dot1dBaseNumPorts
				si.numPorts, hasPorts = int(val.Int), val.Kind != snmp.KindNoSuchObject
			case -3:
				// dot1dBaseBridgeAddress names the bridge's own MAC, which
				// must not be mistaken for a station.
				if m, ok := collector.MACFromBytes(val.Bytes); ok {
					si.mgmtMAC = m
				}
			case 1:
				si.speed[int(o[len(o)-1])] = float64(val.Int)
			default:
				if mac, ok := collector.MACFromOID(o); ok {
					port := int(val.Int)
					si.fdb[mac] = port
					si.perPort[port] = append(si.perPort[port], mac)
				}
			}
			return true
		})
	if err != nil {
		return nil, err
	}
	if !hasPorts {
		return nil, fmt.Errorf("agent serves no dot1dBaseNumPorts")
	}
	return si, nil
}

// inferTopologyLocked runs the forwarding-database inference: two bridge
// ports are directly connected iff their FDB station sets are disjoint and
// jointly complete (Breitbart/Lowekamp condition; our FDBs are converged,
// so completeness holds). Ports with no switch neighbour are edge ports and
// their learned stations are direct attachments.
func (c *Collector) inferTopologyLocked() error {
	// The universe of stations: every MAC seen in any FDB. Bridges'
	// own MACs (from dot1dBaseBridgeAddress) are known and are kept in
	// the universe — they disambiguate interior switches — but are not
	// stations.
	bridgeMAC := make(map[collector.MAC]netip.Addr)
	for _, si := range c.switches {
		var zero collector.MAC
		if si.mgmtMAC != zero {
			bridgeMAC[si.mgmtMAC] = si.addr
		}
	}
	universe := make(map[collector.MAC]bool)
	for _, si := range c.switches {
		for mac := range si.fdb {
			universe[mac] = true
		}
	}

	// Station set per port, as bitsets over a stable MAC ordering.
	macs := make([]collector.MAC, 0, len(universe))
	for mac := range universe {
		macs = append(macs, mac)
	}
	slices.SortFunc(macs, compareMAC)
	macIdx := make(map[collector.MAC]int, len(macs))
	for i, m := range macs {
		macIdx[m] = i
	}
	words := (len(macs) + 63) / 64
	portSet := func(si *switchInfo, port int) []uint64 {
		bs := make([]uint64, words)
		for _, m := range si.perPort[port] {
			i := macIdx[m]
			bs[i/64] |= 1 << (i % 64)
		}
		return bs
	}
	// Everything one switch has learned, over all ports. For a directly
	// connected port pair, the two ports' FDBs partition exactly the
	// union of the two switches' universes: a collector may manage
	// bridges in several broadcast domains at once, so completeness is
	// relative to the pair, not global.
	allSet := func(si *switchInfo) []uint64 {
		bs := make([]uint64, words)
		for mac := range si.fdb {
			i := macIdx[mac]
			bs[i/64] |= 1 << (i % 64)
		}
		return bs
	}

	// The disjoint-and-complete test needs no special-casing for the
	// bridges' own MACs: for a directly connected port pair, each
	// bridge's management MAC is behind the other's port, so the union
	// covers the full universe.
	addrs := make([]netip.Addr, 0, len(c.switches))
	for a := range c.switches {
		addrs = append(addrs, a)
	}
	slices.SortFunc(addrs, netip.Addr.Compare)

	c.links = nil
	linkPorts := make(map[netip.Addr]map[int]bool)
	for _, a := range addrs {
		linkPorts[a] = make(map[int]bool)
	}
	for i := 0; i < len(addrs); i++ {
		for j := i + 1; j < len(addrs); j++ {
			x, y := c.switches[addrs[i]], c.switches[addrs[j]]
			ax, ay := allSet(x), allSet(y)
			// Bridges in the same broadcast domain always share
			// stations (at least each other's bridge MACs); fully
			// disjoint universes mean separate domains, where no
			// direct connection is possible.
			if disjoint(ax, ay) {
				continue
			}
			need := orSets(ax, ay)
			for px := 1; px <= x.numPorts; px++ {
				sx := portSet(x, px)
				for py := 1; py <= y.numPorts; py++ {
					sy := portSet(y, py)
					if !disjoint(sx, sy) {
						continue
					}
					if !coversUnion(sx, sy, need) {
						continue
					}
					c.links = append(c.links, swLink{a: x.addr, aPort: px, b: y.addr, bPort: py})
					linkPorts[x.addr][px] = true
					linkPorts[y.addr][py] = true
				}
			}
		}
	}

	// Broadcast-domain ids: connected components of the inferred switch
	// topology. The same search roots a tree in each domain (a bridged
	// Ethernet is one — spanning tree keeps it so) and records every
	// switch's uplink toward the root, so a switch-to-switch path is a
	// walk up two parent chains instead of a search. Switches are numbered
	// in address order.
	num := make(map[netip.Addr]int32, len(addrs))
	tree := make([]treeSwitch, len(addrs))
	for i, a := range addrs {
		num[a] = int32(i)
		tree[i] = treeSwitch{addr: a, id: c.switches[a].id, parent: -1}
	}
	domain := int32(0)
	queue := make([]int32, 0, len(addrs))
	for root := range tree {
		if tree[root].domain != 0 {
			continue
		}
		domain++
		tree[root].domain = domain
		queue = append(queue[:0], int32(root))
		for len(queue) > 0 {
			cur := &tree[queue[0]]
			queue = queue[1:]
			for _, l := range c.links {
				up := l // oriented child -> parent (cur)
				switch cur.addr {
				case l.a:
					up = l.reversed()
				case l.b:
				default:
					continue
				}
				k := num[up.a]
				if child := &tree[k]; child.domain == 0 {
					*child = treeSwitch{
						addr: child.addr, id: child.id,
						parent: num[cur.addr], depth: cur.depth + 1, domain: domain,
						upPort: up.aPort, upSpeed: c.switches[up.a].speed[up.aPort],
						parentPort: up.bPort, parentSpeed: c.switches[up.b].speed[up.bPort],
					}
					queue = append(queue, k)
				}
			}
		}
	}

	// Stations: MACs learned on edge ports of the switch that sees them
	// closest (the unique switch-port pair where the MAC is on a
	// non-link port). Should two switches claim one, the higher address
	// wins.
	var stations []station
	for i, a := range addrs {
		si := c.switches[a]
		for mac, port := range si.fdb {
			if bridgeMAC[mac].IsValid() {
				continue // bridges are not stations
			}
			if linkPorts[a][port] {
				continue // learned through another switch
			}
			stations = append(stations, station{mac: mac, sw: int32(i), port: port, speed: si.speed[port]})
		}
	}
	slices.SortStableFunc(stations, func(x, y station) int { return compareMAC(x.mac, y.mac) })
	c.stations = stations[:0]
	c.stationAt = make(map[collector.MAC]int32, len(stations))
	for i, st := range stations {
		if i+1 < len(stations) && stations[i+1].mac == st.mac {
			continue
		}
		st.id = StationID(st.mac)
		c.stationAt[st.mac] = int32(len(c.stations))
		c.stations = append(c.stations, st)
	}
	c.tree = tree
	c.gen = Generation{seq: c.gen.seq + 1, links: len(c.stations) + len(tree), switches: len(tree)}
	return nil
}

func disjoint(a, b []uint64) bool {
	for i := range a {
		if a[i]&b[i] != 0 {
			return false
		}
	}
	return true
}

// coversUnion reports whether a ∪ b covers every bit in need.
func coversUnion(a, b, need []uint64) bool {
	for i := range need {
		if (a[i]|b[i])&need[i] != need[i] {
			return false
		}
	}
	return true
}

func orSets(a, b []uint64) []uint64 {
	out := make([]uint64, len(a))
	for i := range a {
		out[i] = a[i] | b[i]
	}
	return out
}

func compareMAC(a, b collector.MAC) int { return bytes.Compare(a[:], b[:]) }
