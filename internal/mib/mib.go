// Package mib exposes emulated netsim devices as SNMP agents serving the
// MIB-II objects the Remos SNMP Collector reads (system group, interfaces
// table, ipRouteTable) and the Bridge-MIB forwarding database the Bridge
// Collector walks on switches.
package mib

import (
	"fmt"
	"sync"
	"sync/atomic"

	"remos/internal/netsim"
	"remos/internal/sim"
	"remos/internal/snmp"
)

// Well-known OIDs, exported for collectors.
var (
	SysDescr  = snmp.MustParseOID("1.3.6.1.2.1.1.1.0")
	SysObject = snmp.MustParseOID("1.3.6.1.2.1.1.2.0")
	SysUpTime = snmp.MustParseOID("1.3.6.1.2.1.1.3.0")
	SysName   = snmp.MustParseOID("1.3.6.1.2.1.1.5.0")

	IfNumber    = snmp.MustParseOID("1.3.6.1.2.1.2.1.0")
	IfTable     = snmp.MustParseOID("1.3.6.1.2.1.2.2.1")
	IfIndex     = IfTable.Append(1)
	IfDescr     = IfTable.Append(2)
	IfType      = IfTable.Append(3)
	IfSpeed     = IfTable.Append(5)
	IfPhysAddr  = IfTable.Append(6)
	IfOperSt    = IfTable.Append(8)
	IfInOctets  = IfTable.Append(10)
	IfOutOctets = IfTable.Append(16)

	// ifXTable high-capacity octet counters (RFC 2863): Counter64, so a
	// gigabit link does not wrap between polls the way Counter32 does
	// (~34 s at line rate). Collectors prefer these when the agent
	// serves them.
	IfXTable      = snmp.MustParseOID("1.3.6.1.2.1.31.1.1.1")
	IfHCInOctets  = IfXTable.Append(6)
	IfHCOutOctets = IfXTable.Append(10)

	IPForwarding = snmp.MustParseOID("1.3.6.1.2.1.4.1.0")
	// ipNetToMediaPhysAddress: the ARP table, indexed ifIndex.ip4.
	IPNetToMediaPhys = snmp.MustParseOID("1.3.6.1.2.1.4.22.1.2")
	// ipAdEntIfIndex: the device's own addresses, indexed by ip4.
	IPAdEntIfIndex = snmp.MustParseOID("1.3.6.1.2.1.4.20.1.2")
	IPRouteTable   = snmp.MustParseOID("1.3.6.1.2.1.4.21.1")
	IPRouteDest    = IPRouteTable.Append(1)
	IPRouteIfIdx   = IPRouteTable.Append(2)
	IPRouteNext    = IPRouteTable.Append(7)
	IPRouteMask    = IPRouteTable.Append(11)

	// Remos private wireless arc (enterprise MIB), served by access
	// points: station count plus per-station negotiated rate and RSSI.
	// Pre-standard 802.11 gear exposed association tables in vendor
	// arcs exactly like this.
	WlanNumStations = snmp.MustParseOID("1.3.6.1.4.1.99999.2.1.0")
	WlanStaTable    = snmp.MustParseOID("1.3.6.1.4.1.99999.2.2.1")
	WlanStaRate     = WlanStaTable.Append(2)
	WlanStaRSSI     = WlanStaTable.Append(3)

	// hrProcessorLoad (Host Resources MIB): the per-processor load the
	// host load sensor polls. The emulator exposes one logical
	// processor per host, scaled so 1.0 of load reads as 100.
	HrProcessorLoad = snmp.MustParseOID("1.3.6.1.2.1.25.3.3.1.2.1")

	Dot1dBaseBridgeAddr  = snmp.MustParseOID("1.3.6.1.2.1.17.1.1.0")
	Dot1dBaseNumPorts    = snmp.MustParseOID("1.3.6.1.2.1.17.1.2.0")
	Dot1dBasePortIfIndex = snmp.MustParseOID("1.3.6.1.2.1.17.1.4.1.2")
	Dot1dTpFdbTable      = snmp.MustParseOID("1.3.6.1.2.1.17.4.3.1")
	Dot1dTpFdbAddress    = Dot1dTpFdbTable.Append(1)
	Dot1dTpFdbPort       = Dot1dTpFdbTable.Append(2)
	Dot1dTpFdbStatus     = Dot1dTpFdbTable.Append(3)
)

// sysObjectID is the emulated devices' sysObjectID value.
var sysObjectID = snmp.MustParseOID("1.3.6.1.4.1.99999.1")

// FdbStatusLearned is the dot1dTpFdbStatus value for a learned entry.
const FdbStatusLearned = 3

// DeviceView serves a netsim device's management objects. It implements
// snmp.MIBView: the layout (which objects, in OID order, with the values
// that cannot change while the topology stands) is an immutable snmp.Table
// published per topology epoch; live values (counters, uptime) are
// computed on access.
type DeviceView struct {
	net *netsim.Network
	dev *netsim.Device

	// NoHC, when set before first use, omits the ifXTable high-capacity
	// counters — modeling legacy gear so collector fallback paths can be
	// exercised.
	NoHC bool

	mu  sync.Mutex // serialises rebuilds; readers never take it
	cur atomic.Pointer[layout]
}

// layout is one epoch's table. It is filled before it is published and
// never written afterwards.
type layout struct {
	epoch int
	table *snmp.Table
}

// NewDeviceView builds a view over the device.
func NewDeviceView(n *netsim.Network, d *netsim.Device) *DeviceView {
	return &DeviceView{net: n, dev: d}
}

// Table implements snmp.MIBView: the layout of the network's current
// topology epoch, rebuilt by the first request to find it stale. Requests
// already answering from the previous table finish on it.
func (v *DeviceView) Table() *snmp.Table {
	ep := v.net.TopologyEpoch()
	if l := v.cur.Load(); l != nil && l.epoch == ep {
		return l.table
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	// The epoch is read again under the lock: whoever rebuilt while this
	// request waited may have built this epoch or a later one.
	ep = v.net.TopologyEpoch()
	if l := v.cur.Load(); l != nil && l.epoch == ep {
		return l.table
	}
	l := &layout{epoch: ep, table: v.build()}
	v.cur.Store(l)
	return l.table
}

// build lays out the device as the network has it now. What cannot change
// while the topology stands — names, indexes, MACs, routes, the forwarding
// database — is bound as a value, built once and handed out as it is (the
// agent only encodes it, and a decoded response never aliases it); what
// can is bound as a function.
func (v *DeviceView) build() *snmp.Table {
	d := v.dev
	ifaces := d.Ifaces()
	var fdb []netsim.FdbEntry
	if d.Kind == netsim.Switch {
		fdb = v.net.FDB(d)
	}
	// Room for everything but a router's ARP entries.
	binds := make([]snmp.Binding, 0, 16+12*len(ifaces)+4*len(d.Routes())+3*len(fdb))
	fixed := func(oid snmp.OID, val snmp.Value) {
		binds = append(binds, snmp.Binding{Name: oid, Value: val})
	}
	live := func(oid snmp.OID, fn func() snmp.Value) {
		binds = append(binds, snmp.Binding{Name: oid, Live: fn})
	}

	// system group
	fixed(SysDescr, snmp.Str(fmt.Sprintf("remos emulated %s %s", d.Kind, d.Name)))
	fixed(SysObject, snmp.OIDValue(sysObjectID))
	live(SysUpTime, func() snmp.Value {
		since := d.BootTime()
		if since.IsZero() {
			since = sim.Epoch
		}
		up := v.net.Scheduler().Now().Sub(since)
		return snmp.Ticks(uint32(up.Milliseconds() / 10))
	})
	fixed(SysName, snmp.Str(d.Name))

	// interfaces group
	fixed(IfNumber, snmp.Int64(int64(len(ifaces))))
	for _, ifc := range ifaces {
		idx := uint32(ifc.Index)
		fixed(IfIndex.Append(idx), snmp.Int64(int64(ifc.Index)))
		fixed(IfDescr.Append(idx), snmp.Str(ifc.Name))
		fixed(IfType.Append(idx), snmp.Int64(6)) // ethernetCsmacd
		live(IfSpeed.Append(idx), func() snmp.Value {
			speed := ifc.Speed()
			if speed > 4294967295 {
				speed = 4294967295 // Gauge32 ceiling, as RFC 2863 prescribes
			}
			return snmp.Gauge(uint32(speed))
		})
		fixed(IfPhysAddr.Append(idx), macVal(ifc.MAC))
		live(IfOperSt.Append(idx), func() snmp.Value {
			if ifc.Link != nil {
				return snmp.Int64(1) // up
			}
			return snmp.Int64(2) // down
		})
		live(IfInOctets.Append(idx), func() snmp.Value {
			in, _ := ifc.Counters()
			return snmp.Counter(in)
		})
		live(IfOutOctets.Append(idx), func() snmp.Value {
			_, out := ifc.Counters()
			return snmp.Counter(out)
		})
		if !v.NoHC {
			live(IfHCInOctets.Append(idx), func() snmp.Value {
				in, _ := ifc.Counters()
				return snmp.Counter64Val(in)
			})
			live(IfHCOutOctets.Append(idx), func() snmp.Value {
				_, out := ifc.Counters()
				return snmp.Counter64Val(out)
			})
		}
	}

	// ip group: forwarding flag and routes (routers only; hosts would
	// carry just their default route, which Remos reads from
	// configuration instead).
	fwd := int64(2)
	if d.IsRouter() {
		fwd = 1
	}
	fixed(IPForwarding, snmp.Int64(fwd))
	if d.IsRouter() {
		for _, rt := range d.Routes() {
			dest := rt.Prefix.Masked().Addr().As4()
			sub := []uint32{uint32(dest[0]), uint32(dest[1]), uint32(dest[2]), uint32(dest[3])}
			fixed(IPRouteDest.Append(sub...), snmp.IPv4(dest))
			fixed(IPRouteIfIdx.Append(sub...), snmp.Int64(int64(rt.IfIndex)))
			next := [4]byte{} // 0.0.0.0: directly connected
			if rt.NextHop.IsValid() {
				next = rt.NextHop.As4()
			}
			fixed(IPRouteNext.Append(sub...), snmp.IPv4(next))
			var m uint32
			if bits := rt.Prefix.Bits(); bits > 0 {
				m = ^uint32(0) << (32 - uint(bits))
			}
			fixed(IPRouteMask.Append(sub...), snmp.IPv4([4]byte{byte(m >> 24), byte(m >> 16), byte(m >> 8), byte(m)}))
		}
	}

	// Host Resources: CPU load for hosts with an attached load source.
	if d.Kind == netsim.Host {
		live(HrProcessorLoad, func() snmp.Value {
			return snmp.Gauge(uint32(d.Load() * 100))
		})
	}

	// Address table: the device's own interface addresses, which
	// collectors use to recognize one router contacted under several
	// addresses.
	for _, ifc := range ifaces {
		if !ifc.IP.IsValid() {
			continue
		}
		ip4 := ifc.IP.As4()
		fixed(IPAdEntIfIndex.Append(uint32(ip4[0]), uint32(ip4[1]), uint32(ip4[2]), uint32(ip4[3])),
			snmp.Int64(int64(ifc.Index)))
	}

	// ARP table (routers only): one entry per station on each attached
	// segment, the source the SNMP Collector uses to resolve host MACs
	// for Bridge Collector lookups.
	if d.IsRouter() {
		for _, rif := range ifaces {
			if !rif.Prefix.IsValid() {
				continue
			}
			for _, other := range v.net.Devices() {
				for _, oif := range other.Ifaces() {
					if oif == rif || !oif.IP.IsValid() || oif.Prefix != rif.Prefix {
						continue
					}
					ip4 := oif.IP.As4()
					sub := []uint32{uint32(rif.Index), uint32(ip4[0]), uint32(ip4[1]), uint32(ip4[2]), uint32(ip4[3])}
					fixed(IPNetToMediaPhys.Append(sub...), macVal(oif.MAC))
				}
			}
		}
	}

	// Bridge-MIB (switches only).
	if d.Kind == netsim.Switch {
		if len(ifaces) > 0 {
			fixed(Dot1dBaseBridgeAddr, macVal(ifaces[0].MAC))
		}
		fixed(Dot1dBaseNumPorts, snmp.Int64(int64(len(ifaces))))
		for _, ifc := range ifaces {
			fixed(Dot1dBasePortIfIndex.Append(uint32(ifc.Index)), snmp.Int64(int64(ifc.Index)))
		}
		// Access points additionally serve the wireless station table.
		if ap := v.net.AccessPointOf(d); ap != nil {
			assocs := ap.Associations()
			fixed(WlanNumStations, snmp.Int64(int64(len(assocs))))
			for _, a := range assocs {
				sub := macSub(netsim.MAC(a.MAC))
				fixed(WlanStaRate.Append(sub...), snmp.Gauge(uint32(min(a.Rate, 4294967295))))
				fixed(WlanStaRSSI.Append(sub...), snmp.Int64(int64(a.RSSI)))
			}
		}
		for _, fe := range fdb {
			sub := macSub(fe.MAC)
			fixed(Dot1dTpFdbAddress.Append(sub...), macVal(fe.MAC))
			fixed(Dot1dTpFdbPort.Append(sub...), snmp.Int64(int64(fe.Port)))
			fixed(Dot1dTpFdbStatus.Append(sub...), snmp.Int64(FdbStatusLearned))
		}
	}
	return snmp.NewTable(binds)
}

func macSub(m netsim.MAC) []uint32 {
	return []uint32{uint32(m[0]), uint32(m[1]), uint32(m[2]), uint32(m[3]), uint32(m[4]), uint32(m[5])}
}

// macVal is the octet-string value of a MAC, on storage of its own.
func macVal(m netsim.MAC) snmp.Value { return snmp.Octets(m[:]) }

// AttachAll creates an agent for every SNMP-reachable device in the
// network and registers it in the registry under the device's management
// address. It returns the number of agents attached.
func AttachAll(n *netsim.Network, reg *snmp.Registry) int {
	count := 0
	for _, d := range n.Devices() {
		if !d.SNMP.Reachable {
			continue
		}
		agent := &snmp.Agent{
			Community: d.SNMP.Community,
			View:      NewDeviceView(n, d),
		}
		// An agent answers on every address the device holds, like a
		// real SNMP daemon bound to all interfaces.
		seen := false
		for _, ifc := range d.Ifaces() {
			if ifc.IP.IsValid() {
				reg.Register(ifc.IP.String(), agent)
				seen = true
			}
		}
		if mgmt := d.ManagementAddr(); mgmt.IsValid() {
			reg.Register(mgmt.String(), agent)
			seen = true
		}
		if seen {
			count++
		}
	}
	return count
}
