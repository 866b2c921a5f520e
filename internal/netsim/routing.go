package netsim

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
	"time"
)

// A segment is one level-2 broadcast domain: the maximal set of interfaces
// reachable from each other through switches only. Each segment receives
// one IP subnet.
type segment struct {
	id       int
	prefix   netip.Prefix
	l3Ifaces []*Iface  // host and router interfaces on this segment
	switches []*Device // interior switches
}

// segments computes the broadcast domains. Caller holds n.mu.
func (n *Network) segmentsLocked() []*segment {
	seen := make(map[*Iface]bool)
	var segs []*segment
	for _, d := range n.order {
		if d.Kind == Switch {
			continue
		}
		for _, ifc := range d.ifaces {
			if seen[ifc] || ifc.Link == nil {
				continue
			}
			seg := &segment{id: len(segs)}
			// BFS from this L3 interface through switches.
			swSeen := make(map[*Device]bool)
			queue := []*Iface{ifc}
			seen[ifc] = true
			seg.l3Ifaces = append(seg.l3Ifaces, ifc)
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				peer := cur.Peer()
				if peer == nil {
					continue
				}
				if peer.Dev.Kind == Switch {
					if swSeen[peer.Dev] {
						continue
					}
					swSeen[peer.Dev] = true
					seg.switches = append(seg.switches, peer.Dev)
					for _, p := range peer.Dev.ifaces {
						if p != peer && p.Link != nil {
							queue = append(queue, p)
						}
					}
				} else {
					if !seen[peer] {
						seen[peer] = true
						seg.l3Ifaces = append(seg.l3Ifaces, peer)
						// Do not traverse through L3 devices: the
						// broadcast domain ends here.
					}
				}
			}
			sort.Slice(seg.l3Ifaces, func(i, j int) bool {
				a, b := seg.l3Ifaces[i], seg.l3Ifaces[j]
				if a.Dev.Name != b.Dev.Name {
					return a.Dev.Name < b.Dev.Name
				}
				return a.Index < b.Index
			})
			sortDevices(seg.switches)
			// If AssignSubnets already ran, recover this segment's
			// prefix from its member interfaces.
			for _, m := range seg.l3Ifaces {
				if m.Prefix.IsValid() {
					seg.prefix = m.Prefix
					break
				}
			}
			segs = append(segs, seg)
		}
	}
	return segs
}

// AssignSubnets gives every broadcast domain a /20 from 10.0.0.0/8
// (room for campus-scale segments) and assigns addresses to the router
// and host interfaces on it (routers get the low addresses). It must be
// called after the topology is built and before ComputeRoutes. Calling it
// again after topology changes reassigns deterministically.
func (n *Network) AssignSubnets() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fdbEpoch++ // every address a derived view lays out is rewritten below
	n.byIP = make(map[netip.Addr]*Iface)
	n.subnetSeq = 0
	for _, seg := range n.segmentsLocked() {
		n.subnetSeq++
		// 10.240.0.0/12 is reserved for switch management addresses.
		if n.subnetSeq >= 0xF00 {
			panic("netsim: out of /20 subnets in 10.0.0.0/8")
		}
		raw := uint32(10)<<24 | uint32(n.subnetSeq)<<12
		base := netip.AddrFrom4([4]byte{byte(raw >> 24), byte(raw >> 16), byte(raw >> 8), byte(raw)})
		prefix := netip.PrefixFrom(base, 20)
		seg.prefix = prefix
		// Routers first so gateways get stable low addresses.
		ordered := make([]*Iface, 0, len(seg.l3Ifaces))
		for _, ifc := range seg.l3Ifaces {
			if ifc.Dev.Kind == Router {
				ordered = append(ordered, ifc)
			}
		}
		for _, ifc := range seg.l3Ifaces {
			if ifc.Dev.Kind == Host {
				ordered = append(ordered, ifc)
			}
		}
		host := uint32(0)
		for _, ifc := range ordered {
			host++
			if host >= 1<<12-1 {
				panic(fmt.Sprintf("netsim: subnet %v overflow (%d interfaces)", prefix, len(ordered)))
			}
			a := raw | host
			ifc.IP = netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
			ifc.Prefix = prefix
			n.byIP[ifc.IP] = ifc
		}
	}
	// Switches get out-of-band management addresses in 10.255.0.0/16,
	// like real bridges with a management VLAN: the Bridge Collector
	// contacts them there even though they forward at level 2.
	mgmt := 0
	for _, d := range n.order {
		if d.Kind != Switch {
			continue
		}
		mgmt++
		if mgmt >= 0xffff {
			panic("netsim: too many switches for the management range")
		}
		d.mgmtIP = netip.AddrFrom4([4]byte{10, 255, byte(mgmt >> 8), byte(mgmt)})
	}
}

// ComputeRoutes fills in router forwarding tables and host default
// gateways using shortest path (hop count) over the router adjacency
// graph. AssignSubnets must have run first.
func (n *Network) ComputeRoutes() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fdbEpoch++ // every route and gateway is rewritten below
	segs := n.segmentsLocked()

	// Adjacency: routers sharing a segment. For each pair record the
	// interfaces they use on that segment.
	type adj struct {
		to      *Device
		selfIfc *Iface
		peerIfc *Iface
	}
	neighbors := make(map[*Device][]adj)
	var routers []*Device
	routerSeen := make(map[*Device]bool)
	for _, seg := range segs {
		var rifs []*Iface
		for _, ifc := range seg.l3Ifaces {
			if ifc.Dev.Kind == Router {
				rifs = append(rifs, ifc)
				if !routerSeen[ifc.Dev] {
					routerSeen[ifc.Dev] = true
					routers = append(routers, ifc.Dev)
				}
			}
		}
		for _, a := range rifs {
			for _, b := range rifs {
				if a.Dev != b.Dev {
					neighbors[a.Dev] = append(neighbors[a.Dev], adj{to: b.Dev, selfIfc: a, peerIfc: b})
				}
			}
		}
	}
	sortDevices(routers)

	// BFS from every router (unit edge weights) recording first hops.
	type firstHop struct {
		selfIfc *Iface
		peerIfc *Iface
	}
	dist := make(map[*Device]map[*Device]int)
	first := make(map[*Device]map[*Device]firstHop)
	for _, r := range routers {
		d := map[*Device]int{r: 0}
		f := map[*Device]firstHop{}
		queue := []*Device{r}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, a := range neighbors[cur] {
				if _, ok := d[a.to]; ok {
					continue
				}
				d[a.to] = d[cur] + 1
				if cur == r {
					f[a.to] = firstHop{selfIfc: a.selfIfc, peerIfc: a.peerIfc}
				} else {
					f[a.to] = f[cur]
				}
				queue = append(queue, a.to)
			}
		}
		dist[r] = d
		first[r] = f
	}

	// Router tables: one route per segment prefix.
	for _, r := range routers {
		r.routes = nil
		for _, seg := range segs {
			if !seg.prefix.IsValid() {
				continue
			}
			// Directly attached?
			var direct *Iface
			for _, ifc := range r.ifaces {
				if ifc.Prefix == seg.prefix && ifc.IP.IsValid() {
					direct = ifc
					break
				}
			}
			if direct != nil {
				r.routes = append(r.routes, Route{Prefix: seg.prefix, IfIndex: direct.Index})
				continue
			}
			// Closest attached router.
			var best *Device
			bestDist := int(^uint(0) >> 1)
			for _, ifc := range seg.l3Ifaces {
				if ifc.Dev.Kind != Router {
					continue
				}
				if dd, ok := dist[r][ifc.Dev]; ok && dd < bestDist {
					bestDist = dd
					best = ifc.Dev
				}
			}
			if best == nil {
				continue // unreachable segment
			}
			fh := first[r][best]
			r.routes = append(r.routes, Route{
				Prefix:  seg.prefix,
				NextHop: fh.peerIfc.IP,
				IfIndex: fh.selfIfc.Index,
			})
		}
		sort.Slice(r.routes, func(i, j int) bool {
			return r.routes[i].Prefix.Addr().Less(r.routes[j].Prefix.Addr())
		})
	}

	// Host default gateways: lowest-addressed router interface on the
	// host's segment.
	for _, seg := range segs {
		var gw netip.Addr
		for _, ifc := range seg.l3Ifaces {
			if ifc.Dev.Kind == Router && ifc.IP.IsValid() {
				if !gw.IsValid() || ifc.IP.Less(gw) {
					gw = ifc.IP
				}
			}
		}
		for _, ifc := range seg.l3Ifaces {
			if ifc.Dev.Kind == Host {
				ifc.Dev.Gateway = gw
			}
		}
	}
}

// lookupRoute finds the longest-prefix match in a router's table. Caller
// holds n.mu or operates on a quiescent network.
func lookupRoute(r *Device, dst netip.Addr) (Route, bool) {
	best := -1
	var out Route
	for _, rt := range r.routes {
		if rt.Prefix.Contains(dst) && rt.Prefix.Bits() > best {
			best = rt.Prefix.Bits()
			out = rt
		}
	}
	return out, best >= 0
}

// dirHop is one directed traversal of a link.
type dirHop struct {
	link  *Link
	fromA bool // true: A->B direction
}

func (h dirHop) out() *Iface {
	if h.fromA {
		return h.link.A
	}
	return h.link.B
}

func (h dirHop) in() *Iface {
	if h.fromA {
		return h.link.B
	}
	return h.link.A
}

// l2Path finds the switch-only path between two L3 devices (or between a
// device and itself, returning nil). Caller holds n.mu.
func (n *Network) l2PathLocked(from, to *Device) ([]dirHop, error) {
	if from == to {
		return nil, nil
	}
	type state struct {
		dev  *Device
		prev *state
		via  dirHop
	}
	start := &state{dev: from}
	queue := []*state{start}
	visited := map[*Device]bool{from: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.dev != from && cur.dev.Kind != Switch {
			continue // cannot forward through hosts/routers at L2
		}
		for _, ifc := range cur.dev.ifaces {
			if ifc.Link == nil {
				continue
			}
			peer := ifc.Peer()
			if visited[peer.Dev] {
				continue
			}
			visited[peer.Dev] = true
			st := &state{dev: peer.Dev, prev: cur, via: dirHop{link: ifc.Link, fromA: ifc.Link.A == ifc}}
			if peer.Dev == to {
				// Reconstruct.
				var rev []dirHop
				for s := st; s.prev != nil; s = s.prev {
					rev = append(rev, s.via)
				}
				path := make([]dirHop, len(rev))
				for i := range rev {
					path[i] = rev[len(rev)-1-i]
				}
				return path, nil
			}
			queue = append(queue, st)
		}
	}
	return nil, fmt.Errorf("netsim: no L2 path from %s to %s", from.Name, to.Name)
}

// resolvePath computes the full directed link path a flow from src to dst
// takes: L2 hops within each segment, L3 hops across routers. Caller holds
// n.mu.
func (n *Network) resolvePathLocked(src, dst *Device) ([]dirHop, error) {
	if src == dst {
		return nil, nil
	}
	dstIP := dst.Addr()
	if !dstIP.IsValid() {
		return nil, fmt.Errorf("netsim: destination %s has no address (run AssignSubnets)", dst.Name)
	}
	var path []dirHop
	cur := src
	for hops := 0; ; hops++ {
		if hops > 64 {
			return nil, fmt.Errorf("netsim: routing loop resolving %s -> %s", src.Name, dst.Name)
		}
		// Directly attached (same segment as dst)?
		onLink := false
		for _, ifc := range cur.ifaces {
			if ifc.Prefix.IsValid() && ifc.Prefix.Contains(dstIP) {
				onLink = true
				break
			}
		}
		if onLink {
			seg, err := n.l2PathLocked(cur, dst)
			if err != nil {
				return nil, err
			}
			return append(path, seg...), nil
		}
		// Next hop.
		var nhIP netip.Addr
		switch cur.Kind {
		case Host:
			nhIP = cur.Gateway
			if !nhIP.IsValid() {
				return nil, fmt.Errorf("netsim: host %s has no gateway for %v", cur.Name, dstIP)
			}
		case Router:
			rt, ok := lookupRoute(cur, dstIP)
			if !ok || !rt.NextHop.IsValid() {
				return nil, fmt.Errorf("netsim: router %s has no route to %v", cur.Name, dstIP)
			}
			nhIP = rt.NextHop
		default:
			return nil, fmt.Errorf("netsim: cannot route through %s (%v)", cur.Name, cur.Kind)
		}
		nh := n.byIP[nhIP]
		if nh == nil {
			return nil, fmt.Errorf("netsim: next hop %v not found", nhIP)
		}
		seg, err := n.l2PathLocked(cur, nh.Dev)
		if err != nil {
			return nil, err
		}
		path = append(path, seg...)
		cur = nh.Dev
	}
}

// Path returns the devices a flow from src to dst traverses, in order,
// including the endpoints. It is the ground truth that topology-discovery
// tests compare the SNMP Collector's view against.
func (n *Network) Path(src, dst *Device) ([]*Device, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	hops, err := n.resolvePathLocked(src, dst)
	if err != nil {
		return nil, err
	}
	devs := []*Device{src}
	for _, h := range hops {
		devs = append(devs, h.in().Dev)
	}
	return devs, nil
}

// PathDelay returns the one-way propagation delay between two devices.
func (n *Network) PathDelay(src, dst *Device) (time.Duration, error) {
	d, _, err := n.PathDelayJitter(src, dst)
	return d, err
}

// PathDelayJitter returns the one-way delay between two devices and its
// jitter. Per-link jitters are independent, so they combine as the root
// of the summed squares.
func (n *Network) PathDelayJitter(src, dst *Device) (time.Duration, time.Duration, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	hops, err := n.resolvePathLocked(src, dst)
	if err != nil {
		return 0, 0, err
	}
	var sum time.Duration
	var varSum float64
	for _, h := range hops {
		sum += h.link.Delay
		j := h.link.Jitter.Seconds()
		varSum += j * j
	}
	jitter := time.Duration(math.Sqrt(varSum) * float64(time.Second))
	return sum, jitter, nil
}
