package bridgecoll

import (
	"context"
	"fmt"
	"net/netip"
	"slices"

	"remos/internal/collector"
	"remos/internal/mib"
	"remos/internal/topology"
)

// Segment is one directed level-2 link along a path: from one attachment
// point to the next. IDs name graph nodes ("st:<mac>" for stations,
// switch management addresses for bridges). PollSwitch/PollPort identify
// the switch interface whose octet counters measure this link, which is
// what the SNMP Collector polls for utilization.
type Segment struct {
	FromID     string
	ToID       string
	Capacity   float64
	PollSwitch netip.Addr
	PollPort   int
	// PollIsFrom is true when the polled port sits at the From end, so
	// the port's out-octets measure From->To traffic; false means the
	// polled port is at the To end and its in-octets measure From->To.
	PollIsFrom bool
	// Link numbers the level-2 link the segment crosses, from 0 to below
	// the Links of its Generation. Within one generation two segments
	// carry the same Link exactly when they join the same two nodes, in
	// either direction.
	Link int32
	// From and To number the switches at the segment's ends, from 0 to
	// below the Switches of its Generation; a station's end is -1.
	From, To int32
}

// Generation names one state of the topology database, from one walk of
// the bridges to the next: the numbering its segments' Links are in.
type Generation struct {
	seq             uint64
	links, switches int
}

// Links is the number of level-2 links the generation numbers.
func (g Generation) Links() int { return g.links }

// Switches is the number of switches the generation numbers.
func (g Generation) Switches() int { return g.switches }

// Generation returns the database's current generation: it changes
// exactly when the bridges are re-walked.
func (c *Collector) Generation() Generation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// StationID renders the graph node ID used for a station.
func StationID(mac collector.MAC) string {
	b := make([]byte, 0, len("st:00:00:00:00:00:00"))
	return string(mac.AppendHex(append(b, "st:"...)))
}

// Domain returns the broadcast-domain id a station belongs to. Two
// stations with the same domain id are level-2 reachable from each other.
func (c *Collector) Domain(mac collector.MAC) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.stationAt[mac]
	if !ok {
		return 0, false
	}
	return int(c.tree[c.stations[i].sw].domain), true
}

// Locate returns the believed attachment point of a station from the
// database (no SNMP traffic).
func (c *Collector) Locate(mac collector.MAC) (sw netip.Addr, port int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.locateLocked(mac)
}

func (c *Collector) locateLocked(mac collector.MAC) (netip.Addr, int, bool) {
	i, ok := c.stationAt[mac]
	if !ok {
		return netip.Addr{}, 0, false
	}
	st := c.stations[i]
	return c.tree[st.sw].addr, st.port, true
}

// VerifyLocation checks a station's forwarding entry on the bridge it is
// believed to be attached to with one SNMP Get — the paper's cheap
// location check. If the entry is gone or moved, the affected bridges are
// re-walked and the topology database updated. It reports the (possibly
// corrected) location.
func (c *Collector) VerifyLocation(mac collector.MAC) (netip.Addr, int, error) {
	sw, port, known := c.Locate(mac)
	if !known {
		return c.SearchStation(mac)
	}
	v, err := c.cfg.Client.GetOne(context.Background(), sw.String(), mib.Dot1dTpFdbPort.Append(mac.OIDSuffix()...))
	if err == nil && int(v.Int) == port {
		return sw, port, nil // still where we thought
	}
	return c.SearchStation(mac)
}

// SearchStation re-walks all bridges to find a station that moved or is
// new, updating the database. This is the expensive path; the bridges are
// walked in parallel and only the commit holds the database mutex, so
// path queries keep being answered from the previous database while the
// search runs.
func (c *Collector) SearchStation(mac collector.MAC) (netip.Addr, int, error) {
	if err := c.SearchStations([]collector.MAC{mac}); err != nil {
		return netip.Addr{}, 0, err
	}
	sw, port, _ := c.Locate(mac)
	return sw, port, nil
}

// SearchStations is SearchStation for several stations at the price of
// one: a single re-walk of the bridges resynchronizes the whole database,
// so a query that found many stations off their believed ports pays for
// it once. It fails if any of the stations is on no bridge afterwards.
func (c *Collector) SearchStations(macs []collector.MAC) error {
	type location struct {
		sw   netip.Addr // invalid: unknown before
		port int
	}
	c.mu.Lock()
	old := make([]location, len(macs))
	for i, mac := range macs {
		old[i].sw, old[i].port, _ = c.locateLocked(mac)
	}
	c.mu.Unlock()
	if err := c.rewalkAll(); err != nil {
		return err
	}
	for i, mac := range macs {
		sw, port, ok := c.Locate(mac)
		if !ok {
			return fmt.Errorf("bridgecoll: station %v not found on any bridge", mac)
		}
		if old[i].sw.IsValid() && (old[i].sw != sw || old[i].port != port) && c.cfg.OnMove != nil {
			c.cfg.OnMove(mac, old[i].sw, sw)
		}
	}
	return nil
}

// monitorOnce verifies the location of every known station, the
// continuous monitoring Section 3.1.2 requires for mobile nodes.
func (c *Collector) monitorOnce() {
	for _, m := range c.Stations() {
		c.VerifyLocation(m) // errors are tolerated; next round retries
	}
}

// noPathError is Path's failure: an endpoint the database does not hold,
// or two stations in different broadcast domains. Callers probe with Path
// and fall back to routing on error, so the message is only rendered if
// someone prints it.
type noPathError struct {
	a, b     collector.MAC
	oka, okb bool
	swA, swB netip.Addr
}

func (e *noPathError) Error() string {
	if !e.oka || !e.okb {
		return fmt.Sprintf("bridgecoll: unknown station (%v known=%v, %v known=%v)", e.a, e.oka, e.b, e.okb)
	}
	return fmt.Sprintf("bridgecoll: no L2 path between %v and %v", e.swA, e.swB)
}

// Path returns the level-2 segments between two stations. Both must be in
// the topology database and in the same broadcast domain.
func (c *Collector) Path(a, b collector.MAC) ([]Segment, error) {
	segs, _, err := c.AppendPath(nil, a, b)
	return segs, err
}

// AppendPath is Path appending to segs, for a caller that folds one path
// after another into a graph and keeps none of them. It also reports the
// generation of the database the path was read from: every re-walk of the
// bridges starts a new one. On error segs comes back as it was.
func (c *Collector) AppendPath(segs []Segment, a, b collector.MAC) ([]Segment, Generation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ia, oka := c.stationAt[a]
	ib, okb := c.stationAt[b]
	if !oka || !okb {
		return segs, c.gen, &noPathError{a: a, b: b, oka: oka, okb: okb}
	}
	sa, sb := &c.stations[ia], &c.stations[ib]
	if c.tree[sa.sw].domain != c.tree[sb.sw].domain {
		return segs, c.gen, &noPathError{a: a, b: b, oka: true, okb: true, swA: c.tree[sa.sw].addr, swB: c.tree[sb.sw].addr}
	}
	// Up a's parent chain to the switch the two chains share, then down
	// b's. Both are counted first; b's side is then written back to front
	// as it is climbed, so every segment points from a toward b.
	up, down := 0, 0
	for x, y := sa.sw, sb.sw; x != y; {
		if c.tree[x].depth >= c.tree[y].depth {
			x, up = c.tree[x].parent, up+1
		} else {
			y, down = c.tree[y].parent, down+1
		}
	}
	segs = slices.Grow(segs, 2+up+down)
	swA, swB := &c.tree[sa.sw], &c.tree[sb.sw]
	segs = append(segs, Segment{
		FromID:     sa.id,
		ToID:       swA.id,
		Capacity:   sa.speed,
		PollSwitch: swA.addr,
		PollPort:   sa.port,
		PollIsFrom: false, // polled port is at the To (switch) end
		Link:       ia,
		From:       -1,
		To:         sa.sw,
	})
	uplink := int32(len(c.stations)) // link number of switch 0's uplink
	for x := sa.sw; up > 0; up-- {
		sw := &c.tree[x]
		segs = append(segs, Segment{
			FromID:     sw.id,
			ToID:       c.tree[sw.parent].id,
			Capacity:   sw.upSpeed,
			PollSwitch: sw.addr,
			PollPort:   sw.upPort,
			PollIsFrom: true,
			Link:       uplink + x,
			From:       x,
			To:         sw.parent,
		})
		x = sw.parent
	}
	n := len(segs)
	segs = segs[:n+down]
	for y, i := sb.sw, n+down-1; i >= n; i-- {
		sw := &c.tree[y]
		p := &c.tree[sw.parent]
		segs[i] = Segment{
			FromID:     p.id,
			ToID:       sw.id,
			Capacity:   sw.parentSpeed,
			PollSwitch: p.addr,
			PollPort:   sw.parentPort,
			PollIsFrom: true,
			Link:       uplink + y,
			From:       sw.parent,
			To:         y,
		}
		y = sw.parent
	}
	segs = append(segs, Segment{
		FromID:     swB.id,
		ToID:       sb.id,
		Capacity:   sb.speed,
		PollSwitch: swB.addr,
		PollPort:   sb.port,
		PollIsFrom: true, // polled port is at the From (switch) end
		Link:       ib,
		From:       sb.sw,
		To:         -1,
	})
	return segs, c.gen, nil
}

// Stations lists the known station MACs in stable order.
func (c *Collector) Stations() []collector.MAC {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]collector.MAC, len(c.stations))
	for i, st := range c.stations {
		out[i] = st.mac
	}
	return out
}

// SwitchLinks returns the number of inferred switch-to-switch links.
func (c *Collector) SwitchLinks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.links)
}

// Graph returns the level-2 topology as a graph: switches and stations,
// links with capacities, no utilization (dynamic data is the SNMP
// Collector's job).
func (c *Collector) Graph() *topology.Graph {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := topology.NewGraph()
	for _, addr := range c.cfg.Switches {
		g.AddNode(topology.Node{ID: addr.String(), Kind: topology.SwitchNode, Addr: addr.String()})
	}
	for _, st := range c.stations {
		g.AddNode(topology.Node{ID: st.id, Kind: topology.HostNode})
		g.AddLink(topology.Link{From: st.id, To: c.tree[st.sw].id, Capacity: st.speed})
	}
	for _, l := range c.links {
		g.AddLink(topology.Link{
			From: l.a.String(), To: l.b.String(),
			Capacity: c.switches[l.a].speed[l.aPort],
		})
	}
	return g
}

// Collect implements collector.Interface: the Bridge Collector's own
// answer is the static L2 graph (hosts resolve by MAC only, so Hosts in
// the query are ignored; the SNMP Collector composes richer answers).
func (c *Collector) Collect(q collector.Query) (*collector.Result, error) {
	c.mu.Lock()
	started := c.started
	c.mu.Unlock()
	if !started {
		return nil, fmt.Errorf("bridgecoll: not started")
	}
	return &collector.Result{Graph: c.Graph()}, nil
}
