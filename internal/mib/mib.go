// Package mib exposes emulated netsim devices as SNMP agents serving the
// MIB-II objects the Remos SNMP Collector reads (system group, interfaces
// table, ipRouteTable) and the Bridge-MIB forwarding database the Bridge
// Collector walks on switches.
package mib

import (
	"fmt"
	"sort"
	"sync"

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

// entry is one bound OID with a lazily evaluated value.
type entry struct {
	oid snmp.OID
	fn  func() snmp.Value
}

// DeviceView serves a netsim device's management objects. It implements
// snmp.MIBView. Table layout (OID order) is cached and revalidated against
// the network's topology epoch; values (counters, uptime) are computed on
// access.
type DeviceView struct {
	net *netsim.Network
	dev *netsim.Device

	// NoHC, when set before first use, omits the ifXTable high-capacity
	// counters — modeling legacy gear so collector fallback paths can be
	// exercised.
	NoHC bool

	mu      sync.Mutex
	epoch   int
	entries []entry
}

// NewDeviceView builds a view over the device.
func NewDeviceView(n *netsim.Network, d *netsim.Device) *DeviceView {
	return &DeviceView{net: n, dev: d, epoch: -1}
}

func (v *DeviceView) refreshLocked() {
	ep := v.net.TopologyEpoch()
	if ep == v.epoch {
		return
	}
	v.epoch = ep
	v.entries = v.entries[:0]
	d := v.dev
	add := func(oid snmp.OID, fn func() snmp.Value) {
		v.entries = append(v.entries, entry{oid: oid, fn: fn})
	}

	// system group
	add(SysDescr, constStr(fmt.Sprintf("remos emulated %s %s", d.Kind, d.Name)))
	add(SysObject, constVal(snmp.OIDValue(sysObjectID)))
	add(SysUpTime, func() snmp.Value {
		since := d.BootTime()
		if since.IsZero() {
			since = sim.Epoch
		}
		up := v.net.Scheduler().Now().Sub(since)
		return snmp.Ticks(uint32(up.Milliseconds() / 10))
	})
	add(SysName, constStr(d.Name))

	// interfaces group
	ifaces := d.Ifaces()
	add(IfNumber, func() snmp.Value { return snmp.Int64(int64(len(ifaces))) })
	for _, ifc := range ifaces {
		ifc := ifc
		idx := uint32(ifc.Index)
		add(IfIndex.Append(idx), func() snmp.Value { return snmp.Int64(int64(ifc.Index)) })
		add(IfDescr.Append(idx), constStr(ifc.Name))
		add(IfType.Append(idx), func() snmp.Value { return snmp.Int64(6) }) // ethernetCsmacd
		add(IfSpeed.Append(idx), func() snmp.Value {
			speed := ifc.Speed()
			if speed > 4294967295 {
				speed = 4294967295 // Gauge32 ceiling, as RFC 2863 prescribes
			}
			return snmp.Gauge(uint32(speed))
		})
		add(IfPhysAddr.Append(idx), constMAC(ifc.MAC))
		add(IfOperSt.Append(idx), func() snmp.Value {
			if ifc.Link != nil {
				return snmp.Int64(1) // up
			}
			return snmp.Int64(2) // down
		})
		add(IfInOctets.Append(idx), func() snmp.Value {
			in, _ := ifc.Counters()
			return snmp.Counter(in)
		})
		add(IfOutOctets.Append(idx), func() snmp.Value {
			_, out := ifc.Counters()
			return snmp.Counter(out)
		})
		if !v.NoHC {
			add(IfHCInOctets.Append(idx), func() snmp.Value {
				in, _ := ifc.Counters()
				return snmp.Counter64Val(in)
			})
			add(IfHCOutOctets.Append(idx), func() snmp.Value {
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
	add(IPForwarding, func() snmp.Value { return snmp.Int64(fwd) })
	if d.IsRouter() {
		for _, rt := range d.Routes() {
			dest := rt.Prefix.Masked().Addr().As4()
			sub := []uint32{uint32(dest[0]), uint32(dest[1]), uint32(dest[2]), uint32(dest[3])}
			add(IPRouteDest.Append(sub...), constVal(snmp.IPv4(dest)))
			add(IPRouteIfIdx.Append(sub...), constVal(snmp.Int64(int64(rt.IfIndex))))
			next := [4]byte{} // 0.0.0.0: directly connected
			if rt.NextHop.IsValid() {
				next = rt.NextHop.As4()
			}
			add(IPRouteNext.Append(sub...), constVal(snmp.IPv4(next)))
			var m uint32
			if bits := rt.Prefix.Bits(); bits > 0 {
				m = ^uint32(0) << (32 - uint(bits))
			}
			add(IPRouteMask.Append(sub...), constVal(snmp.IPv4([4]byte{byte(m >> 24), byte(m >> 16), byte(m >> 8), byte(m)})))
		}
	}

	// Host Resources: CPU load for hosts with an attached load source.
	if d.Kind == netsim.Host {
		add(HrProcessorLoad, func() snmp.Value {
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
		ifc := ifc
		ip4 := ifc.IP.As4()
		add(IPAdEntIfIndex.Append(uint32(ip4[0]), uint32(ip4[1]), uint32(ip4[2]), uint32(ip4[3])),
			func() snmp.Value { return snmp.Int64(int64(ifc.Index)) })
	}

	// ARP table (routers only): one entry per station on each attached
	// segment, the source the SNMP Collector uses to resolve host MACs
	// for Bridge Collector lookups.
	if d.IsRouter() {
		for _, rif := range d.Ifaces() {
			if !rif.Prefix.IsValid() {
				continue
			}
			rif := rif
			for _, other := range v.net.Devices() {
				for _, oif := range other.Ifaces() {
					if oif == rif || !oif.IP.IsValid() || oif.Prefix != rif.Prefix {
						continue
					}
					oif := oif
					ip4 := oif.IP.As4()
					sub := []uint32{uint32(rif.Index), uint32(ip4[0]), uint32(ip4[1]), uint32(ip4[2]), uint32(ip4[3])}
					add(IPNetToMediaPhys.Append(sub...), constMAC(oif.MAC))
				}
			}
		}
	}

	// Bridge-MIB (switches only).
	if d.Kind == netsim.Switch {
		if len(ifaces) > 0 {
			first := ifaces[0]
			add(Dot1dBaseBridgeAddr, constMAC(first.MAC))
		}
		add(Dot1dBaseNumPorts, func() snmp.Value { return snmp.Int64(int64(len(ifaces))) })
		for _, ifc := range ifaces {
			ifc := ifc
			add(Dot1dBasePortIfIndex.Append(uint32(ifc.Index)),
				func() snmp.Value { return snmp.Int64(int64(ifc.Index)) })
		}
		// Access points additionally serve the wireless station table.
		if ap := v.net.AccessPointOf(d); ap != nil {
			assocs := ap.Associations()
			add(WlanNumStations, func() snmp.Value { return snmp.Int64(int64(len(assocs))) })
			for _, a := range assocs {
				a := a
				sub := macSub(netsim.MAC(a.MAC))
				add(WlanStaRate.Append(sub...), func() snmp.Value {
					rate := a.Rate
					if rate > 4294967295 {
						rate = 4294967295
					}
					return snmp.Gauge(uint32(rate))
				})
				add(WlanStaRSSI.Append(sub...), func() snmp.Value {
					return snmp.Int64(int64(a.RSSI))
				})
			}
		}
		for _, fe := range v.net.FDB(d) {
			fe := fe
			sub := macSub(fe.MAC)
			add(Dot1dTpFdbAddress.Append(sub...), constMAC(fe.MAC))
			add(Dot1dTpFdbPort.Append(sub...), func() snmp.Value { return snmp.Int64(int64(fe.Port)) })
			add(Dot1dTpFdbStatus.Append(sub...), func() snmp.Value { return snmp.Int64(FdbStatusLearned) })
		}
	}

	sortEntries(v.entries)
}

func macSub(m netsim.MAC) []uint32 {
	return []uint32{uint32(m[0]), uint32(m[1]), uint32(m[2]), uint32(m[3]), uint32(m[4]), uint32(m[5])}
}

// constVal serves a value fixed for the layout's lifetime. Octet strings
// and OIDs are built once per refresh and handed out as they are, not
// copied per request: the agent only encodes them, and a decoded response
// never aliases them.
func constVal(v snmp.Value) func() snmp.Value {
	return func() snmp.Value { return v }
}

func constStr(s string) func() snmp.Value { return constVal(snmp.Str(s)) }

func constMAC(m netsim.MAC) func() snmp.Value { return constVal(snmp.Octets(m[:])) }

func sortEntries(es []entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].oid.Cmp(es[j].oid) < 0 })
}

// Get implements snmp.MIBView.
func (v *DeviceView) Get(oid snmp.OID) (snmp.Value, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.refreshLocked()
	lo, hi := 0, len(v.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		switch c := v.entries[mid].oid.Cmp(oid); {
		case c == 0:
			return v.entries[mid].fn(), true
		case c < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return snmp.Value{}, false
}

// Next implements snmp.MIBView.
func (v *DeviceView) Next(oid snmp.OID) (snmp.OID, snmp.Value, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.refreshLocked()
	lo, hi := 0, len(v.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if v.entries[mid].oid.Cmp(oid) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(v.entries) {
		// The layout's OIDs are built fresh by each refresh and never
		// written again, so the caller may keep this one.
		return v.entries[lo].oid, v.entries[lo].fn(), true
	}
	return nil, snmp.Value{}, false
}

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
