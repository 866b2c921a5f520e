// Package netsim is a deterministic, fluid-flow network emulator that
// stands in for the multi-host testbeds the Remos paper ran on (the CMU
// campus LAN, the CMU/ETH/BBN wide-area paths, and the private router
// testbed of Section 5.2).
//
// The emulator models hosts, level-2 switches and level-3 routers joined by
// full-duplex links with capacity and propagation delay. Traffic is fluid:
// concurrent flows share links according to max-min fairness, interface
// octet counters advance as the integral of the allocated rates, and finite
// transfers complete by discrete events on the simulation clock. This is
// exactly the level of abstraction Remos observes the network at — SNMP
// counters, forwarding tables, routes and achieved transfer rates — so the
// collectors run against it unmodified.
package netsim

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"time"

	"remos/internal/sim"
)

// DeviceKind distinguishes the three classes of emulated equipment.
type DeviceKind int

// Device kinds.
const (
	Host   DeviceKind = iota // end system; sources and sinks flows
	Switch                   // level-2 bridge; forwards by MAC
	Router                   // level-3; forwards by IP
)

// String returns the lowercase kind name.
func (k DeviceKind) String() string {
	switch k {
	case Host:
		return "host"
	case Switch:
		return "switch"
	case Router:
		return "router"
	}
	return fmt.Sprintf("DeviceKind(%d)", int(k))
}

// MAC is a 48-bit hardware address.
type MAC [6]byte

// String formats the address in the usual colon-separated hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Device is one piece of emulated equipment.
type Device struct {
	Name string
	Kind DeviceKind

	// SNMP exposes whether a management agent on this device is
	// reachable by collectors, and under which community string. Devices
	// with Reachable=false model the paper's "routers it cannot access",
	// which the SNMP Collector must represent with a virtual switch.
	SNMP struct {
		Reachable bool
		Community string
	}

	// Gateway is the default next hop for hosts; set by ComputeRoutes.
	Gateway netip.Addr

	net    *Network
	ifaces []*Iface
	routes []Route    // L3 forwarding table (routers; hosts use Gateway)
	mgmtIP netip.Addr // management address for switches (no L3 ifaces)
	booted time.Time  // last (re)boot; zero means the network's start
	loadFn func() float64
}

// BootTime returns when the device last (re)booted.
func (d *Device) BootTime() time.Time { return d.booted }

// SetLoadSource attaches a CPU load signal to the device (usually a
// hostload.Generator's Next). The emulated Host-Resources MIB serves it
// as hrProcessorLoad, which the host load collector polls.
func (d *Device) SetLoadSource(fn func() float64) {
	d.net.mu.Lock()
	defer d.net.mu.Unlock()
	d.loadFn = fn
}

// Load samples the device's CPU load signal; 0 when none is attached.
func (d *Device) Load() float64 {
	d.net.mu.Lock()
	fn := d.loadFn
	d.net.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// ManagementAddr returns the address a management agent on the device
// answers at: the first interface address, or for switches the dedicated
// management address assigned by AssignSubnets.
func (d *Device) ManagementAddr() netip.Addr {
	if ip := d.Addr(); ip.IsValid() {
		return ip
	}
	return d.mgmtIP
}

// Ifaces returns the device's interfaces in ifIndex order.
func (d *Device) Ifaces() []*Iface { return d.ifaces }

// Routes returns the device's routing table (routers only).
func (d *Device) Routes() []Route { return d.routes }

// Network returns the network the device belongs to.
func (d *Device) Network() *Network { return d.net }

// IsRouter reports whether the device forwards at level 3.
func (d *Device) IsRouter() bool { return d.Kind == Router }

// Addr returns the device's first assigned IP address, or the zero Addr if
// it has none. For single-homed hosts this is "the" address.
func (d *Device) Addr() netip.Addr {
	for _, ifc := range d.ifaces {
		if ifc.IP.IsValid() {
			return ifc.IP
		}
	}
	return netip.Addr{}
}

// Iface is a network interface on a device. ifIndex values are 1-based, as
// in the SNMP interfaces table.
type Iface struct {
	Dev   *Device
	Index int
	Name  string
	MAC   MAC

	// IP and Prefix are set by AssignSubnets for hosts and routers;
	// switch ports carry no address.
	IP     netip.Addr
	Prefix netip.Prefix

	Link *Link // nil while unconnected

	// Octet counters, advanced lazily by the flow accounting. These are
	// the values the emulated SNMP agent serves as ifInOctets and
	// ifOutOctets (truncated to Counter32 there).
	inOctets  float64
	outOctets float64
}

// Peer returns the interface at the other end of this interface's link,
// or nil if unconnected.
func (i *Iface) Peer() *Iface {
	if i.Link == nil {
		return nil
	}
	if i.Link.A == i {
		return i.Link.B
	}
	return i.Link.A
}

// Speed returns the attached link capacity in bits per second, or 0 if
// unconnected.
func (i *Iface) Speed() float64 {
	if i.Link == nil {
		return 0
	}
	return i.Link.Capacity
}

// Counters returns the interface's in/out octet counters after advancing
// flow accounting to the current simulation time.
func (i *Iface) Counters() (in, out uint64) {
	n := i.Dev.net
	n.mu.Lock()
	defer n.mu.Unlock()
	n.advanceLocked(n.sched.Now())
	return uint64(i.inOctets), uint64(i.outOctets)
}

// Link is a full-duplex connection between two interfaces.
type Link struct {
	ID       int
	A, B     *Iface
	Capacity float64       // bits per second, each direction
	Delay    time.Duration // one-way propagation delay
	// Jitter is the standard deviation of the one-way delay (queueing
	// variability); multimedia applications care about it (Section 6.2
	// names it as the next metric Remos should provide).
	Jitter time.Duration
}

// Route is one entry in a router's L3 forwarding table.
type Route struct {
	Prefix  netip.Prefix
	NextHop netip.Addr // zero Addr means directly connected
	IfIndex int        // outgoing interface on this device
}

// Network is a collection of devices, links and flows sharing one
// simulation clock.
type Network struct {
	mu    sync.Mutex
	sched sim.Scheduler

	devices map[string]*Device
	order   []*Device // insertion order, for deterministic iteration
	links   []*Link

	flows       map[int]*Flow
	nextFlowID  int
	lastAdvance time.Time

	macCounter uint32
	subnetSeq  int

	byIP map[netip.Addr]*Iface
	aps  map[*Device]*AccessPoint

	fdbEpoch int // bumped on any topology, address or route change; invalidates derived views
}

// New creates an empty network on the given scheduler.
func New(sched sim.Scheduler) *Network {
	return &Network{
		sched:       sched,
		devices:     make(map[string]*Device),
		flows:       make(map[int]*Flow),
		byIP:        make(map[netip.Addr]*Iface),
		lastAdvance: sched.Now(),
	}
}

// Scheduler returns the clock the network runs on.
func (n *Network) Scheduler() sim.Scheduler { return n.sched }

// AddHost adds a host device. Device names must be unique.
func (n *Network) AddHost(name string) *Device { return n.addDevice(name, Host) }

// AddSwitch adds a level-2 switch.
func (n *Network) AddSwitch(name string) *Device { return n.addDevice(name, Switch) }

// AddRouter adds a level-3 router.
func (n *Network) AddRouter(name string) *Device { return n.addDevice(name, Router) }

func (n *Network) addDevice(name string, kind DeviceKind) *Device {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.devices[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate device name %q", name))
	}
	d := &Device{Name: name, Kind: kind, net: n}
	d.SNMP.Reachable = kind != Host // agents on routers and switches by default
	d.SNMP.Community = "public"
	n.devices[name] = d
	n.order = append(n.order, d)
	n.fdbEpoch++
	return d
}

// Device returns the named device, or nil.
func (n *Network) Device(name string) *Device {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.devices[name]
}

// Devices returns all devices in creation order.
func (n *Network) Devices() []*Device {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*Device, len(n.order))
	copy(out, n.order)
	return out
}

// Links returns all links in creation order.
func (n *Network) Links() []*Link {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*Link, len(n.links))
	copy(out, n.links)
	return out
}

// Connect joins two devices with a new link of the given capacity (bits
// per second) and one-way delay, creating one new interface on each side.
func (n *Network) Connect(a, b *Device, capacity float64, delay time.Duration) *Link {
	n.mu.Lock()
	defer n.mu.Unlock()
	if capacity <= 0 {
		panic("netsim: Connect with non-positive capacity")
	}
	ia := n.newIfaceLocked(a)
	ib := n.newIfaceLocked(b)
	l := &Link{ID: len(n.links), A: ia, B: ib, Capacity: capacity, Delay: delay}
	ia.Link = l
	ib.Link = l
	n.links = append(n.links, l)
	n.fdbEpoch++
	return l
}

func (n *Network) newIfaceLocked(d *Device) *Iface {
	n.macCounter++
	ifc := &Iface{
		Dev:   d,
		Index: len(d.ifaces) + 1,
		Name:  fmt.Sprintf("%s-eth%d", d.Name, len(d.ifaces)),
		MAC:   MAC{0x02, 0x00, byte(n.macCounter >> 16), byte(n.macCounter >> 8), byte(n.macCounter), 0x01},
	}
	d.ifaces = append(d.ifaces, ifc)
	return ifc
}

// MoveHost re-homes a single-link host onto a new peer device (typically a
// different switch), modeling the host movement the Bridge Collector must
// track. The host keeps its addresses; routes are not recomputed, which
// matches a station roaming within its LAN.
func (n *Network) MoveHost(h *Device, newPeer *Device, capacity float64, delay time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h.Kind != Host || len(h.ifaces) != 1 {
		panic("netsim: MoveHost requires a single-homed host")
	}
	n.advanceLocked(n.sched.Now())
	// Sever the old link: both sides go down. Any flow crossing it keeps
	// its stale path; callers re-resolve flows after moves.
	old := h.ifaces[0].Link
	if old != nil {
		old.A.Link = nil
		old.B.Link = nil
		for i, l := range n.links {
			if l == old {
				n.links = append(n.links[:i], n.links[i+1:]...)
				break
			}
		}
		// Renumber link IDs to stay dense.
		for i, l := range n.links {
			l.ID = i
		}
	}
	ip := n.newIfaceLocked(newPeer)
	l := &Link{ID: len(n.links), A: h.ifaces[0], B: ip, Capacity: capacity, Delay: delay}
	h.ifaces[0].Link = l
	ip.Link = l
	n.links = append(n.links, l)
	n.fdbEpoch++
	n.reallocateLocked()
}

// Reboot simulates a management-plane restart of the device: its uptime
// restarts and all interface octet counters reset to zero — the failure
// collectors must detect via sysUpTime before trusting counter deltas.
// Traffic forwarding is unaffected (the emulator models the counters'
// loss, not an outage).
func (n *Network) Reboot(d *Device) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.advanceLocked(n.sched.Now())
	d.booted = n.sched.Now()
	for _, ifc := range d.ifaces {
		ifc.inOctets = 0
		ifc.outOctets = 0
	}
}

// TopologyEpoch returns a counter that increments on every change to what
// a device's tables hold (devices added, links connected, hosts moved,
// addresses assigned, routes computed). Callers caching derived views
// (forwarding databases, MIB tables) revalidate against it.
func (n *Network) TopologyEpoch() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fdbEpoch
}

// IfaceByIP returns the interface holding the given address, or nil.
func (n *Network) IfaceByIP(ip netip.Addr) *Iface {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.byIP[ip]
}

// DeviceByIP returns the device owning the given address, or nil.
func (n *Network) DeviceByIP(ip netip.Addr) *Device {
	if ifc := n.IfaceByIP(ip); ifc != nil {
		return ifc.Dev
	}
	return nil
}

// sortedDevices returns devices of the given kind sorted by name.
func sortDevices(ds []*Device) {
	sort.Slice(ds, func(i, j int) bool { return ds[i].Name < ds[j].Name })
}
