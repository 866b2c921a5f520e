package snmpcoll

import (
	"context"
	"net/netip"
	"sort"
	"time"

	"remos/internal/collector"
	"remos/internal/conc"
	"remos/internal/mib"
	"remos/internal/snmp"
)

// annotate fills each graph link's utilization from history, registering
// poll points for links not yet monitored. It reports whether any link was
// cold (registered just now, so utilization is not yet available). The new
// points are registered first and then given their baseline read together,
// one Get per device, so the first poll yields a delta one interval from
// now.
func (c *Collector) annotate(ctx context.Context, cl *snmp.Client, b *build) (coldStart bool) {
	var added []*pollPoint
	var slab []pollPoint // the new points, made together
	hist := c.pred.History()
	links := b.g.Links()
	for i, l := range links {
		reg := b.linkPolls[pairOf(l.From, l.To)]
		if !reg.agent.IsValid() {
			continue // unmeasurable link (virtual host side)
		}
		kFwd := collector.HistKey{From: reg.from, To: reg.to}
		kRev := collector.HistKey{From: reg.to, To: reg.from}
		sFwd, okF := hist.Latest(kFwd)
		sRev, okR := hist.Latest(kRev)
		if okF || okR {
			// Orient onto the link (reg.from/to may be swapped
			// relative to l.From/To).
			fwd, rev := sFwd.Bits, sRev.Bits
			if l.From != reg.from {
				fwd, rev = rev, fwd
			}
			l.UtilFromTo = fwd
			l.UtilToFrom = rev
		} else {
			coldStart = true // no delta yet
		}
		mk := monitorKey{agent: reg.agent, ifIndex: reg.ifIndex}
		c.mu.Lock()
		if _, monitored := c.monitors[mk]; !monitored {
			if slab == nil {
				slab = make([]pollPoint, 0, len(links)-i)
				added = make([]*pollPoint, 0, len(links)-i)
			}
			slab = slab[:len(slab)+1]
			p := &slab[len(slab)-1]
			p.agent, p.ifIndex = reg.agent, reg.ifIndex
			p.from, p.to, p.outIsFromTo = reg.from, reg.to, reg.outIsFromTo
			c.monitors[mk] = p
			added = append(added, p)
			coldStart = true
		}
		c.mu.Unlock()
	}
	c.readPoints(ctx, cl, added)
	return coldStart
}

// pollOIDLen is the length of every OID pollOIDs builds: a counter column
// plus the interface index.
var pollOIDLen = len(mib.IfHCInOctets) + 1

// pollOIDs appends the OIDs a point's next read fetches, by mode, carving
// them from arena (sized 4*pollOIDLen per point at most). A probe asks for
// both counter generations in one Get so the first (baseline) exchange
// also decides which pair this interface serves — the cold read stays a
// single exchange either way.
func (p *pollPoint) pollOIDs(dst []snmp.OID, arena *snmp.OIDArena) []snmp.OID {
	idx := uint32(p.ifIndex)
	if p.mode != mode32 { // modeHC, modeProbe
		dst = append(dst, arena.Append(mib.IfHCInOctets, idx), arena.Append(mib.IfHCOutOctets, idx))
	}
	if p.mode != modeHC { // mode32, modeProbe
		dst = append(dst, arena.Append(mib.IfInOctets, idx), arena.Append(mib.IfOutOctets, idx))
	}
	return dst
}

// width is how many OIDs the point's next read asks for.
func (p *pollPoint) width() int {
	if p.mode == modeProbe {
		return 4
	}
	return 2
}

// counterKind is the value kind the mode's counters must carry.
func (m counterMode) counterKind() snmp.Kind {
	if m == modeHC {
		return snmp.KindCounter64
	}
	return snmp.KindCounter32
}

// readCountersLocked reads a poll point's octet counters once (p.mu
// held) from its agent at addr, recording a utilization sample when a previous baseline exists.
func (c *Collector) readCountersLocked(ctx context.Context, cl *snmp.Client, addr string, p *pollPoint) {
	now := c.cfg.Sched.Now()
	arena := make(snmp.OIDArena, 0, 4*pollOIDLen)
	oids := p.pollOIDs(make([]snmp.OID, 0, 4), &arena)
	err := cl.GetFunc(ctx, addr, oids, func(vbs []snmp.VarBind) {
		if in, out, ok := p.applyCounterVarBinds(oids, vbs); ok {
			c.applyDelta(p, in, out, now)
		}
	})
	if err != nil {
		p.havePrev = false // device unreachable; resync next time
	}
}

// applyCounterVarBinds validates a response against the OIDs the point
// asked for and extracts the (in, out) counter pair. Probe responses
// resolve the point's mode: high-capacity counters when served, legacy
// Counter32 otherwise. Any unexpected OID or value kind resynchronizes
// the point (baseline dropped, mode re-probed) and returns ok=false —
// the satellite fix for the old matcher, which took any non-ifInOctets
// varbind for the out-counter.
func (p *pollPoint) applyCounterVarBinds(oids []snmp.OID, vbs []snmp.VarBind) (in, out uint64, ok bool) {
	resync := func() (uint64, uint64, bool) {
		p.havePrev = false
		p.mode = modeProbe
		return 0, 0, false
	}
	if len(vbs) != len(oids) {
		return resync()
	}
	for i, vb := range vbs {
		if vb.Name.Cmp(oids[i]) != 0 {
			return resync()
		}
	}
	if p.mode == modeProbe {
		// vbs: HCIn, HCOut, In32, Out32.
		if vbs[0].Value.Kind == snmp.KindCounter64 && vbs[1].Value.Kind == snmp.KindCounter64 {
			p.mode = modeHC
			return uint64(vbs[0].Value.Int), uint64(vbs[1].Value.Int), true
		}
		if vbs[2].Value.Kind == snmp.KindCounter32 && vbs[3].Value.Kind == snmp.KindCounter32 {
			p.mode = mode32
			return uint64(uint32(vbs[2].Value.Int)), uint64(uint32(vbs[3].Value.Int)), true
		}
		return resync()
	}
	kind := p.mode.counterKind()
	if vbs[0].Value.Kind != kind || vbs[1].Value.Kind != kind {
		return resync()
	}
	if p.mode == mode32 {
		return uint64(uint32(vbs[0].Value.Int)), uint64(uint32(vbs[1].Value.Int)), true
	}
	return uint64(vbs[0].Value.Int), uint64(vbs[1].Value.Int), true
}

// applyDelta records a utilization sample from a fresh counter reading
// taken at now, then advances the baseline. Counter32 deltas use 32-bit
// wraparound arithmetic exactly as the unbatched poller always did;
// Counter64 counters never wrap in practice, so any backwards movement is
// a device reset. Both paths resynchronize on a reset instead of
// recording an absurd rate.
func (c *Collector) applyDelta(p *pollPoint, in, out uint64, now time.Time) {
	if p.havePrev {
		dt := now.Sub(p.prevAt).Seconds()
		if dt > 0 {
			var dIn, dOut uint64
			if p.mode == modeHC {
				if in < p.prevIn || out < p.prevOut {
					p.prevIn, p.prevOut, p.prevAt = in, out, now
					return
				}
				dIn, dOut = in-p.prevIn, out-p.prevOut
			} else {
				d32In := uint32(uint32(in) - uint32(p.prevIn)) // wraps correctly in uint32
				d32Out := uint32(uint32(out) - uint32(p.prevOut))
				// A counter moving backwards by more than half the range
				// is a device reset, not a wrap: resynchronize instead of
				// recording an absurd rate.
				if d32In > 1<<31 || d32Out > 1<<31 {
					p.prevIn, p.prevOut, p.prevAt = in, out, now
					return
				}
				dIn, dOut = uint64(d32In), uint64(d32Out)
			}
			inBits := float64(dIn) * 8 / dt
			outBits := float64(dOut) * 8 / dt
			fwdKey := collector.HistKey{From: p.from, To: p.to}
			revKey := collector.HistKey{From: p.to, To: p.from}
			fwdBits, revBits := outBits, inBits
			if !p.outIsFromTo {
				fwdBits, revBits = inBits, outBits
			}
			c.pred.Feed(fwdKey, collector.Sample{T: now, Bits: fwdBits})
			c.pred.Feed(revKey, collector.Sample{T: now, Bits: revBits})
		}
	}
	p.prevIn, p.prevOut, p.prevAt, p.havePrev = in, out, now, true
}

// pollOnce reads every monitored interface — the periodic monitoring loop
// ("by default, the utilization is monitored every five seconds").
func (c *Collector) pollOnce() {
	c.mu.Lock()
	points := make([]*pollPoint, 0, len(c.monitors))
	for _, p := range c.monitors {
		points = append(points, p)
	}
	c.mu.Unlock()
	c.readPoints(context.Background(), c.pollClient, points)
	c.lastPoll.Store(c.cfg.Sched.Now().UnixNano())
}

// readPoints reads the given poll points' counters, one device's points
// at a time (in (agent, ifIndex) order, which is also the order their
// locks are taken in); the devices are spread over a worker pool
// (Config.Parallelism wide) so a large monitoring set completes within the
// poll interval.
func (c *Collector) readPoints(ctx context.Context, cl *snmp.Client, points []*pollPoint) {
	sort.Slice(points, func(i, j int) bool {
		if points[i].agent != points[j].agent {
			return points[i].agent.Less(points[j].agent)
		}
		return points[i].ifIndex < points[j].ifIndex
	})
	var devices [][]*pollPoint
	for start := 0; start < len(points); {
		end := start + 1
		for end < len(points) && points[end].agent == points[start].agent {
			end++
		}
		devices = append(devices, points[start:end])
		start = end
	}
	conc.ForEach(len(devices), c.cfg.Parallelism, func(i int) error {
		c.readDevice(ctx, cl, devices[i])
		return nil
	})
}

// readDevice reads one device's poll points in multi-varbind Gets bounded
// by Config.MaxVarBinds — two varbinds for a settled point, four for one
// still probing its counter generation — so a round costs the device one
// exchange, or a few, rather than one per interface. The points' mutexes
// are held throughout, serializing reads of one interface so a query-path
// baseline read and a parallel poll never interleave their delta
// computations.
func (c *Collector) readDevice(ctx context.Context, cl *snmp.Client, points []*pollPoint) {
	for _, p := range points {
		p.mu.Lock()
	}
	defer func() {
		for _, p := range points {
			p.mu.Unlock()
		}
	}()
	limit := c.maxVarBinds()
	addr := points[0].agent.String() // rendered once for all of the device's exchanges
	for start := 0; start < len(points); {
		end, n := start, 0
		for end < len(points) {
			w := points[end].width()
			if end > start && n+w > limit {
				break
			}
			n += w
			end++
		}
		c.readBatchLocked(ctx, cl, addr, points[start:end])
		start = end
	}
}

// readBatchLocked reads a chunk of the poll points of the device at addr
// (their mutexes held) in a single Get, timestamping the whole batch once. A
// point still probing for its counter generation contributes its four
// probe OIDs to the same Get (the probe doubles as the baseline read). A
// failed or short response falls back to per-interface reads, so one
// misbehaving varbind cannot poison a device's whole batch.
func (c *Collector) readBatchLocked(ctx context.Context, cl *snmp.Client, addr string, batch []*pollPoint) {
	if len(batch) == 1 {
		c.readCountersLocked(ctx, cl, addr, batch[0])
		return
	}
	oids := make([]snmp.OID, 0, 4*len(batch))
	arena := make(snmp.OIDArena, 0, 4*len(batch)*pollOIDLen)
	for _, p := range batch {
		oids = p.pollOIDs(oids, &arena)
	}
	now := c.cfg.Sched.Now()
	err := cl.GetFunc(ctx, addr, oids, func(vbs []snmp.VarBind) {
		if len(vbs) != len(oids) {
			// Malformed response: retry each interface on its own.
			for _, p := range batch {
				c.readCountersLocked(ctx, cl, addr, p)
			}
			return
		}
		lo := 0
		for _, p := range batch {
			hi := lo + p.width() // read before the response settles a probing point's mode
			in, out, ok := p.applyCounterVarBinds(oids[lo:hi], vbs[lo:hi])
			lo = hi
			if !ok {
				// This interface answered with an unexpected OID or kind
				// (partial error): re-read it alone, which re-probes.
				c.readCountersLocked(ctx, cl, addr, p)
				continue
			}
			c.applyDelta(p, in, out, now)
		}
	})
	if err != nil {
		for _, p := range batch {
			p.havePrev = false // device unreachable; resync next time
		}
	}
}

// Utilization returns the latest measured utilization for the directed
// pair of node IDs, if any.
func (c *Collector) Utilization(from, to string) (float64, bool) {
	s, ok := c.pred.History().Latest(collector.HistKey{From: from, To: to})
	return s.Bits, ok
}

// DropCaches clears the router, route, and monitoring caches — used by
// experiments to produce the Fig 3 "cold" scenario on a running collector.
func (c *Collector) DropCaches() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.routers = make(map[netip.Addr]*routerInfo)
	c.chains = make(map[chainKey][]netip.Addr)
	c.arp = make(map[netip.Addr]collector.MAC)
	c.monitors = make(map[monitorKey]*pollPoint)
	c.pred.Reset()
}

// DropDynamic clears only the dynamic data (monitoring baselines and
// history), keeping static topology caches — the Fig 3 "warm-bridge"
// scenario (static warm, dynamic cold).
func (c *Collector) DropDynamic() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.monitors = make(map[monitorKey]*pollPoint)
	c.pred.Reset()
}
