// Package snmpcoll implements the Remos SNMP Collector (Section 3.1.1):
// it discovers the routed topology between queried hosts by following
// routes hop-to-hop through router route tables, learns link capacities
// from interface tables, periodically monitors utilization through octet
// counters, aggressively caches everything it learns, and represents
// unreachable regions and shared segments with virtual switches.
//
// Level-2 detail inside switched segments comes from a Bridge Collector
// when one is attached, exactly as in the paper.
package snmpcoll

import (
	"cmp"
	"context"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"remos/internal/collector"
	"remos/internal/collector/bridgecoll"
	"remos/internal/conc"
	"remos/internal/mib"
	"remos/internal/obs"
	"remos/internal/sim"
	"remos/internal/snmp"
)

// Config configures an SNMP Collector.
type Config struct {
	// Name identifies the collector (e.g. "snmp-cmu").
	Name string
	// Transport and Community configure SNMP access.
	Transport snmp.Transport
	Community string
	// Sched drives periodic polling and stamps samples. Required.
	Sched sim.Scheduler
	// GatewayOf returns the configured first-hop router for a host —
	// "the routers they are configured to use" in the paper's words.
	GatewayOf func(netip.Addr) (netip.Addr, bool)
	// ResolveMAC maps a host or router address to its MAC for level-2
	// lookups (ARP knowledge).
	ResolveMAC func(netip.Addr) (collector.MAC, bool)
	// Bridge optionally supplies level-2 paths within switched
	// segments.
	Bridge *bridgecoll.Collector
	// PollInterval is the utilization monitoring period (default 5s,
	// the paper's default).
	PollInterval time.Duration
	// Parallelism bounds how many devices are walked, asked or polled
	// concurrently (the gateway, resolve and confirm phases of a query,
	// cached-router validation, baseline reads, periodic polling).
	// 0 selects GOMAXPROCS; 1 restores the fully serial paths.
	Parallelism int
	// MaxVarBinds bounds how many varbinds one Get carries (default 24).
	// The poller batches all of a device's monitored interfaces into
	// ceil(2*ifaces/MaxVarBinds) exchanges instead of one exchange per
	// interface, and a query asks one device for all the ARP or
	// forwarding entries and counters it needs from it under the same
	// bound. 0 selects the default; values below 2 are raised to 2 (one
	// interface per PDU).
	MaxVarBinds int

	// StreamPredict, when set to an RPS model spec (e.g. "AR(16)"),
	// attaches a streaming predictor (collector.Predictor) to every
	// monitored link direction: the Section 2.3 configuration where
	// predictions are computed at the collector and shared across
	// consumers. Empty disables.
	StreamPredict string

	// Obs, when set, receives this collector's metrics (query counts,
	// cold starts, SNMP exchange costs). Nil disables instrumentation.
	Obs *obs.Registry
}

// routerInfo caches what has been learned about one router. Apart from
// upTime (atomic, advanced by per-query validation) the fields are
// immutable once fetchRouter returns, so concurrent queries may read a
// cached routerInfo without locking; a rebooted router is replaced by a
// fresh routerInfo rather than mutated in place.
type routerInfo struct {
	// addr is the address the router was first contacted under, where
	// validation keeps talking to it. addrs is addr plus every address in
	// the router's own ipAddrTable: the keys it is cached under, so a
	// router met again as somebody's next hop is recognized, not walked
	// and validated a second time.
	addr    netip.Addr
	addrs   []netip.Addr
	sysName string
	upTime  atomic.Uint32 // ticks at cache fill/validation, for reboot detection
	routes  []routeEntry
	// longest is the longest prefix length in routes: destinations equal
	// in their first longest bits take the same route here.
	longest int
	// ifNumber is the interface count the router reported; with the
	// route count it sizes the walk that refreshes this view.
	ifNumber int
	// ifaces holds what ifSpeed and ifPhysAddress say of each interface,
	// sorted by ifIndex: its capacity, and the MAC that finds its
	// attachment point on a bridged segment. An agent numbers its
	// interfaces as it likes, so a lookup searches, it does not index.
	ifaces []ifaceInfo

	// The first rows of addrs, routes and ifaces, kept in the view: the
	// view of a router whose tables fit firstContactRows rows is one
	// allocation. Longer tables grow on the heap.
	addrRows  [firstContactRows]netip.Addr
	routeRows [firstContactRows]routeEntry
	ifaceRows [firstContactRows]ifaceInfo
}

// ifaceInfo is one interface of a router view.
type ifaceInfo struct {
	index  int
	speed  float64
	mac    collector.MAC
	hasMAC bool
}

// speed returns the capacity of the router's interface ifIndex, 0 for one
// it did not report.
func (ri *routerInfo) speed(ifIndex int) float64 {
	if f := ri.iface(ifIndex); f != nil {
		return f.speed
	}
	return 0
}

// mac returns the MAC of the router's interface ifIndex, if it reported
// one.
func (ri *routerInfo) mac(ifIndex int) (collector.MAC, bool) {
	if f := ri.iface(ifIndex); f != nil {
		return f.mac, f.hasMAC
	}
	return collector.MAC{}, false
}

func (ri *routerInfo) iface(ifIndex int) *ifaceInfo {
	i, ok := slices.BinarySearchFunc(ri.ifaces, ifIndex, ifaceInfo.compareIndex)
	if !ok {
		return nil
	}
	return &ri.ifaces[i]
}

func (f ifaceInfo) compareIndex(ifIndex int) int { return cmp.Compare(f.index, ifIndex) }

// nodeID is the canonical graph identity of the router: its sysName,
// which stays stable no matter which address the collector contacted.
func (ri *routerInfo) nodeID() string {
	if ri.sysName != "" {
		return ri.sysName
	}
	return ri.addr.String()
}

type routeEntry struct {
	prefix  netip.Prefix // its address is the row's destination, as the agent indexed it
	nextHop netip.Addr   // invalid = directly connected
	ifIndex int
}

func (e routeEntry) compareDest(dst netip.Addr) int { return e.prefix.Addr().Compare(dst) }

// counterMode tracks which octet counters a poll point reads. A fresh
// point probes for the 64-bit high-capacity counters (RFC 2863) and locks
// onto them when served, falling back to the legacy Counter32 pair; any
// unexpected response re-probes.
type counterMode int

const (
	modeProbe counterMode = iota // next read decides: HC or legacy 32-bit
	modeHC                       // ifHCInOctets/ifHCOutOctets (Counter64)
	mode32                       // ifInOctets/ifOutOctets (Counter32)
)

// pollPoint is one monitored interface: the device and ifIndex polled,
// and the directed graph link it measures. The counter baseline is
// guarded by its own mutex so parallel polling, query-path baseline
// reads, and reboot invalidation never race.
type pollPoint struct {
	agent   netip.Addr
	ifIndex int
	from    string // node ID at the polled port's end
	to      string
	// outIsFromTo: the port's out-octets measure from->to traffic.
	outIsFromTo bool

	mu       sync.Mutex
	mode     counterMode
	prevIn   uint64
	prevOut  uint64
	prevAt   time.Time
	havePrev bool
}

// QueryStats reports the SNMP cost of one Collect call — the quantity
// Figure 3 plots as query response time.
type QueryStats struct {
	Requests int
	RTT      time.Duration
	// ColdStart reports whether the query had to start monitoring links
	// that had no utilization history yet; such a query's usable answer
	// arrives only after one poll interval.
	ColdStart bool
}

// Collector is a running SNMP Collector.
type Collector struct {
	cfg Config

	mu       sync.Mutex
	routers  map[netip.Addr]*routerInfo
	arp      map[netip.Addr]collector.MAC
	monitors map[monitorKey]*pollPoint
	pred     *collector.Predictor // per-link history and forecasts
	poller   *sim.Timer

	// fetches single-flights concurrent cache fills of the same router,
	// so a query storm walks each device once.
	fetches conc.Flight[netip.Addr, *routerInfo]

	// names holds the text of the addresses queries name (see name).
	namesMu sync.Mutex
	names   map[netip.Addr]string

	pollClient *snmp.Client // the periodic poller's client

	// builds holds the working state of finished queries for the next
	// ones to reuse (see build).
	builds sync.Pool

	lastPoll atomic.Int64 // unix nanos of the last completed poll cycle

	mQueries *obs.Counter
	mCold    *obs.Counter
}

type monitorKey struct {
	agent   netip.Addr
	ifIndex int
}

// streamHorizon is how many poll intervals ahead streaming predictions
// run.
const streamHorizon = 8

// New creates an SNMP Collector and starts its periodic poller. It
// panics on a Config without a scheduler, or with a StreamPredict spec
// rps cannot parse: both are wiring bugs.
func New(cfg Config) *Collector {
	if cfg.Sched == nil {
		panic("snmpcoll: Config.Sched is required")
	}
	pred, err := collector.NewPredictor(cfg.StreamPredict, streamHorizon)
	if err != nil {
		panic(fmt.Sprintf("snmpcoll: bad StreamPredict spec %q: %v", cfg.StreamPredict, err))
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 5 * time.Second
	}
	c := &Collector{
		cfg:      cfg,
		routers:  make(map[netip.Addr]*routerInfo),
		arp:      make(map[netip.Addr]collector.MAC),
		monitors: make(map[monitorKey]*pollPoint),
		names:    make(map[netip.Addr]string),
		pred:     pred,
	}
	c.pollClient = c.client(nil)
	c.mQueries = cfg.Obs.Counter("remos_snmpcoll_queries_total",
		"queries answered by SNMP collectors", "collector", c.Name())
	c.mCold = cfg.Obs.Counter("remos_snmpcoll_cold_queries_total",
		"queries that had to start monitoring unmeasured links", "collector", c.Name())
	c.poller = cfg.Sched.Every(cfg.PollInterval, c.pollOnce)
	return c
}

// Name implements collector.Interface.
func (c *Collector) Name() string {
	if c.cfg.Name != "" {
		return c.cfg.Name
	}
	return "snmp"
}

// Stop halts periodic polling and prediction.
func (c *Collector) Stop() {
	c.poller.Stop()
	c.pred.Close()
}

// client builds a client around the shared transport with the given meter.
func (c *Collector) client(m *snmp.Meter) *snmp.Client {
	cl := snmp.NewClient(c.cfg.Transport, c.cfg.Community)
	cl.Meter = m
	cl.Instrument(c.cfg.Obs)
	return cl
}

// LastPoll reports when the periodic poller last completed a cycle (zero
// before the first cycle) — the /healthz liveness signal.
func (c *Collector) LastPoll() time.Time {
	ns := c.lastPoll.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// name returns an address's text. A cold query names every host it places
// and every agent it asks, so each is rendered once in the collector's
// life and kept in one table: an address's text never goes stale, and
// DropCaches keeps it. Past poolMax addresses, names render uncached.
func (c *Collector) name(a netip.Addr) string {
	c.namesMu.Lock()
	s, ok := c.names[a]
	c.namesMu.Unlock()
	if ok {
		return s
	}
	s = a.String()
	c.namesMu.Lock()
	if len(c.names) < poolMax {
		c.names[a] = s
	}
	c.namesMu.Unlock()
	return s
}

// maxVarBinds returns the configured per-PDU varbind bound.
func (c *Collector) maxVarBinds() int {
	n := c.cfg.MaxVarBinds
	if n <= 0 {
		n = 24
	}
	if n < 2 {
		n = 2
	}
	return n
}

// PollInterval returns the monitoring period.
func (c *Collector) PollInterval() time.Duration { return c.cfg.PollInterval }

// routerScalars are the objects fetchRouter reads beside its columns, and
// routerColumns the table columns it walks together: the four route-table
// columns, then the interface and address tables. The walk shows scalar i
// as column -1-i.
var (
	routerScalars = []snmp.OID{mib.SysName, mib.SysUpTime, mib.IfNumber}
	routerColumns = []snmp.OID{
		mib.IPRouteDest, mib.IPRouteMask, mib.IPRouteNext, mib.IPRouteIfIdx,
		mib.IfSpeed, mib.IfPhysAddr, mib.IPAdEntIfIndex,
	}
)

const (
	colSysName = -1 - iota
	colSysUpTime
	colIfNumber
)

const (
	colRouteDest = iota
	colRouteMask
	colRouteNext
	colRouteIfIdx
	colIfSpeed
	colIfPhysAddr
	colIPAdEnt
)

// firstContactRows sizes the first GetBulk to a router nothing is known
// about: enough rows that a small router's tables end inside the response.
const firstContactRows = 8

// fetchRouter learns one router — system group, route table, interface
// speeds and MACs, own addresses — in one lock-step column walk: a router
// whose tables fit the first response costs one exchange. prev, the view
// this fetch replaces (nil on first contact), sizes that first request:
// one row more than the longest table it held, so the walk sees every
// column end. The view's tables are filled as the walk streams, each sized
// by that row count: inside the view up to firstContactRows rows.
func (c *Collector) fetchRouter(ctx context.Context, cl *snmp.Client, addr netip.Addr, prev *routerInfo) (*routerInfo, error) {
	rows := firstContactRows
	if prev != nil {
		rows = max(len(prev.routes), prev.ifNumber) + 1
	}
	ri := &routerInfo{addr: addr}
	ri.addrs = append(slices.Grow(ri.addrRows[:0], rows), addr)
	ri.routes = slices.Grow(ri.routeRows[:0], rows)
	ri.ifaces = slices.Grow(ri.ifaceRows[:0], rows)
	// Route rows are keyed by destination, and a column may mention a
	// destination the dest column has not reached yet: a row is made on
	// first mention, in destination order.
	route := func(ip netip.Addr) *routeEntry {
		return sortedAt(&ri.routes, ip, routeEntry.compareDest, routeEntry{prefix: netip.PrefixFrom(ip, 24)})
	}
	iface := func(o snmp.OID) *ifaceInfo {
		index := int(o[len(o)-1])
		return sortedAt(&ri.ifaces, index, ifaceInfo.compareIndex, ifaceInfo{index: index})
	}
	err := cl.BulkWalkColumns(ctx, c.name(addr), routerScalars, routerColumns, rows,
		func(col int, o snmp.OID, v snmp.Value) bool {
			switch col {
			case colSysName:
				ri.sysName = string(v.Bytes)
				return true
			case colSysUpTime:
				ri.upTime.Store(uint32(v.Int))
				return true
			case colIfNumber:
				ri.ifNumber = int(v.Int)
				return true
			case colIfSpeed:
				iface(o).speed = float64(v.Int)
				return true
			case colIfPhysAddr:
				if m, ok := collector.MACFromBytes(v.Bytes); ok {
					f := iface(o)
					f.mac, f.hasMAC = m, true
				}
				return true
			}
			ip, ok := ip4Suffix(o)
			if !ok {
				return true
			}
			switch col {
			case colIPAdEnt:
				if ip != addr {
					ri.addrs = append(ri.addrs, ip)
				}
			case colRouteDest:
				route(ip)
			case colRouteMask:
				if len(v.Bytes) == 4 {
					e := route(ip)
					e.prefix = netip.PrefixFrom(ip, maskBits([4]byte(v.Bytes)))
				}
			case colRouteNext:
				if nh, ok := netip.AddrFromSlice(v.Bytes); ok && nh.Is4() && !nh.IsUnspecified() {
					route(ip).nextHop = nh
				}
			case colRouteIfIdx:
				route(ip).ifIndex = int(v.Int)
			}
			return true
		})
	if err != nil {
		return nil, err
	}
	for _, e := range ri.routes {
		ri.longest = max(ri.longest, e.prefix.Bits())
	}
	return ri, nil
}

// sortedAt returns the element of s, sorted by compare, whose key is k,
// inserting fresh in its place when there is none. A column walk mentions
// keys in ascending order, so the element is nearly always the last one or
// goes after it.
func sortedAt[E, K any](s *[]E, k K, compare func(E, K) int, fresh E) *E {
	t := *s
	i, found := len(t), false
	if i > 0 {
		if d := compare(t[i-1], k); d == 0 {
			i, found = i-1, true
		} else if d > 0 {
			i, found = slices.BinarySearchFunc(t, k, compare)
		}
	}
	if !found {
		t = slices.Insert(t, i, fresh)
		*s = t
	}
	return &t[i]
}

// ip4Suffix reads the IPv4 address indexing a row from the last four
// sub-identifiers of its OID.
func ip4Suffix(o snmp.OID) (netip.Addr, bool) {
	if len(o) < 4 {
		return netip.Addr{}, false
	}
	t := o[len(o)-4:]
	return netip.AddrFrom4([4]byte{byte(t[0]), byte(t[1]), byte(t[2]), byte(t[3])}), true
}

func maskBits(m [4]byte) int {
	bits := 0
	for _, b := range m {
		for i := 7; i >= 0; i-- {
			if b&(1<<i) != 0 {
				bits++
			} else {
				return bits
			}
		}
	}
	return bits
}

// routerFor returns a (possibly cached) router view, and whether it was
// fetched just now — a fetch reads sysUpTime, so a fresh view needs no
// validation this query. Cache fills are single-flighted: concurrent
// queries missing on the same router share one walk instead of each
// walking the device.
func (c *Collector) routerFor(ctx context.Context, cl *snmp.Client, addr netip.Addr) (ri *routerInfo, fresh bool, err error) {
	c.mu.Lock()
	cached := c.routers[addr]
	c.mu.Unlock()
	if cached != nil {
		return cached, false, nil
	}
	ri, err, _ = c.fetches.Do(addr, func() (*routerInfo, error) {
		ri, err := c.fetchRouter(ctx, cl, addr, nil)
		if err != nil {
			return nil, err
		}
		c.storeRouter(ri)
		return ri, nil
	})
	return ri, true, err
}

// storeRouter caches a fetched router under every address it holds: one
// identity per router, whichever address a path reaches it by.
func (c *Collector) storeRouter(ri *routerInfo) {
	c.mu.Lock()
	for _, a := range ri.addrs {
		c.routers[a] = ri
	}
	c.mu.Unlock()
}

// validateRouter performs the cheap per-query liveness/reboot check on a
// cached router: one sysUpTime read. A reboot (uptime going backwards)
// invalidates the cached tables and the counter baselines for that
// device and refreshes them (cached routerInfo is replaced, never
// mutated, so queries already holding the old pointer keep a consistent
// pre-reboot snapshot). An unreachable agent is an error.
func (c *Collector) validateRouter(ctx context.Context, cl *snmp.Client, ri *routerInfo) error {
	v, err := cl.GetOne(ctx, c.name(ri.addr), mib.SysUpTime)
	if err != nil {
		return fmt.Errorf("snmpcoll: router %v unreachable: %w", ri.addr, err)
	}
	if uint32(v.Int) >= ri.upTime.Load() {
		ri.upTime.Store(uint32(v.Int))
		return nil
	}
	// Rebooted: drop what we believed about it and re-learn.
	c.mu.Lock()
	var points []*pollPoint
	for _, a := range ri.addrs {
		if c.routers[a] == ri {
			delete(c.routers, a)
		}
	}
	for _, p := range c.monitors {
		if slices.Contains(ri.addrs, p.agent) {
			points = append(points, p)
		}
	}
	c.mu.Unlock()
	for _, p := range points {
		p.mu.Lock()
		p.havePrev = false
		p.mu.Unlock()
	}
	fresh, err := c.fetchRouter(ctx, cl, ri.addr, ri)
	if err != nil {
		return fmt.Errorf("snmpcoll: refreshing rebooted router %v: %w", ri.addr, err)
	}
	c.storeRouter(fresh)
	return nil
}

// lpm finds the longest-prefix route for dst in a cached router table.
func (ri *routerInfo) lpm(dst netip.Addr) (routeEntry, bool) {
	best := -1
	var out routeEntry
	for _, e := range ri.routes {
		if e.prefix.Contains(dst) && e.prefix.Bits() > best {
			best = e.prefix.Bits()
			out = e
		}
	}
	return out, best >= 0
}
