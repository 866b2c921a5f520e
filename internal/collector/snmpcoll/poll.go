package snmpcoll

import (
	"cmp"
	"context"
	"slices"
	"time"

	"remos/internal/collector"
	"remos/internal/conc"
	"remos/internal/mib"
	"remos/internal/snmp"
)

// newPoints makes, unread, a poll point for each link measured at a
// device interface no monitor covers yet. Nothing else sees them until
// annotate publishes them, in link order: when two links are measured at
// one interface, the first names what its point measures.
func (b *build) newPoints() {
	c := b.c
	added := b.added[:0]
	var slab []pollPoint // the new points, made together: the collector keeps them
	c.mu.Lock()
	for i := range b.links {
		reg := &b.links[i].poll
		if !reg.agent.IsValid() {
			continue // unmeasurable link (virtual host side)
		}
		if _, monitored := c.monitors[monitorKey{agent: reg.agent, ifIndex: reg.ifIndex}]; monitored {
			continue
		}
		if slab == nil {
			slab = make([]pollPoint, 0, len(b.links)-i)
			added = slices.Grow(added, len(b.links)-i)
		}
		slab = slab[:len(slab)+1]
		p := &slab[len(slab)-1]
		p.agent, p.ifIndex = reg.agent, reg.ifIndex
		p.from, p.to, p.outIsFromTo = b.nodes[reg.from].ID, b.nodes[reg.to].ID, reg.outIsFromTo
		added = append(added, p)
	}
	c.mu.Unlock()
	b.added = added
}

// annotate fills each link's utilization from history and registers the
// query's new poll points. It reports whether any link was cold
// (registered just now, so utilization is not yet available). The points
// confirm could not read — those settled on Counter32, and those on
// devices holding no queried station — are read first, one Get per
// device, and every point is published with its baseline and counter
// generation: no poll meets a point nobody read, and the first poll
// yields a delta one interval from now.
func (b *build) annotate() (coldStart bool) {
	c := b.c
	hist := c.pred.History()
	for i := range b.links {
		l := &b.links[i]
		reg := l.poll
		if !reg.agent.IsValid() {
			continue // unmeasurable link (virtual host side)
		}
		from, to := b.nodes[reg.from].ID, b.nodes[reg.to].ID
		sFwd, okF := hist.Latest(collector.HistKey{From: from, To: to})
		sRev, okR := hist.Latest(collector.HistKey{From: to, To: from})
		if okF || okR {
			// Orient onto the link (reg.from/to may be swapped
			// relative to l.from/to).
			fwd, rev := sFwd.Bits, sRev.Bits
			if l.from != reg.from {
				fwd, rev = rev, fwd
			}
			l.UtilFromTo = fwd
			l.UtilToFrom = rev
		} else {
			coldStart = true // no delta yet
		}
	}
	unread := b.unread[:0]
	for _, p := range b.added {
		if !p.havePrev {
			unread = append(unread, p)
		}
	}
	b.unread = unread
	c.readPoints(unread, b.readItem)
	c.mu.Lock()
	for _, p := range b.added {
		// An earlier link, or a concurrent query, may have registered the
		// interface since.
		if mk := (monitorKey{agent: p.agent, ifIndex: p.ifIndex}); c.monitors[mk] == nil {
			c.monitors[mk] = p
			coldStart = true
		}
	}
	c.mu.Unlock()
	return coldStart
}

// pollOIDLen is the length of every OID pollOIDs builds: a counter column
// plus the interface index.
var pollOIDLen = len(mib.IfHCInOctets) + 1

// pollOIDs appends the two OIDs a point's next read fetches, carving them
// from arena (sized 2*pollOIDLen per point). A point still probing asks for
// the high-capacity pair only: RFC 2863 requires it on every interface
// faster than 20 Mb/s, so the probe is the baseline read nearly always. A
// point whose agent does not serve it settles on the legacy Counter32 pair,
// which readDevice reads for all such points of the device in one more Get.
func (p *pollPoint) pollOIDs(dst []snmp.OID, arena *snmp.OIDArena) []snmp.OID {
	idx := uint32(p.ifIndex)
	if p.mode == mode32 {
		return append(dst, arena.Append(mib.IfInOctets, idx), arena.Append(mib.IfOutOctets, idx))
	}
	return append(dst, arena.Append(mib.IfHCInOctets, idx), arena.Append(mib.IfHCOutOctets, idx))
}

// counterKind is the value kind the mode's counters must carry.
func (m counterMode) counterKind() snmp.Kind {
	if m == modeHC {
		return snmp.KindCounter64
	}
	return snmp.KindCounter32
}

// readOutcome is what one point's varbinds in a response came to.
type readOutcome int

const (
	readOK     readOutcome = iota // the counter pair was read
	readLegacy                    // the probe found no HC counters: the point is mode32, not yet read
	readResync                    // unexpected OID or kind: the point resynchronized
)

// resync drops the point's baseline and has its next read re-probe.
func (p *pollPoint) resync() {
	p.havePrev = false
	p.mode = modeProbe
}

// applyCounterVarBinds validates the two varbinds answering the point's
// two OIDs and extracts the (in, out) counter pair. Any unexpected OID
// resynchronizes the point — the satellite fix for the old matcher, which
// took any non-ifInOctets varbind for the out-counter.
func (p *pollPoint) applyCounterVarBinds(oids []snmp.OID, vbs []snmp.VarBind) (in, out uint64, r readOutcome) {
	for i, vb := range vbs {
		if vb.Name.Cmp(oids[i]) != 0 {
			p.resync()
			return 0, 0, readResync
		}
	}
	return p.counterPair(vbs[0].Value, vbs[1].Value)
}

// counterPair extracts the (in, out) counter pair from the values the
// point's two OIDs were answered with, by name. A probe not answered with
// two Counter64s (noSuchObject, noSuchInstance or another kind) settles
// the point on Counter32, unread; a settled point answered with the wrong
// kind resynchronizes.
func (p *pollPoint) counterPair(vIn, vOut snmp.Value) (in, out uint64, r readOutcome) {
	kind := p.mode.counterKind()
	switch {
	case p.mode == modeProbe && (vIn.Kind != snmp.KindCounter64 || vOut.Kind != snmp.KindCounter64):
		p.mode = mode32
		return 0, 0, readLegacy
	case p.mode == modeProbe:
		p.mode = modeHC
	case vIn.Kind != kind || vOut.Kind != kind:
		p.resync()
		return 0, 0, readResync
	}
	if p.mode == mode32 {
		return uint64(uint32(vIn.Int)), uint64(uint32(vOut.Int)), readOK
	}
	return uint64(vIn.Int), uint64(vOut.Int), readOK
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
	c.readPoints(points, func(start int) error {
		c.readFrom(context.Background(), c.pollClient, points, start)
		return nil
	})
	c.lastPoll.Store(c.cfg.Sched.Now().UnixNano())
}

// readPoints reads the given poll points' counters, one device's points
// at a time (in (agent, ifIndex) order, which is also the order their
// locks are taken in); the devices are spread over a worker pool
// (Config.Parallelism wide) so a large monitoring set completes within the
// poll interval. It sorts the points, then calls read with each index:
// read is readFrom over the same points.
func (c *Collector) readPoints(points []*pollPoint, read func(start int) error) {
	slices.SortFunc(points, func(p, q *pollPoint) int {
		if d := p.agent.Compare(q.agent); d != 0 {
			return d
		}
		return cmp.Compare(p.ifIndex, q.ifIndex)
	})
	conc.ForEach(len(points), c.cfg.Parallelism, read)
}

// readFrom reads the device whose points, sorted by readPoints, begin at
// points[start]: each device is read by the item at its first point, and
// every other item reads nothing.
func (c *Collector) readFrom(ctx context.Context, cl *snmp.Client, points []*pollPoint, start int) {
	agent := points[start].agent
	if start > 0 && points[start-1].agent == agent {
		return
	}
	end := start + 1
	for end < len(points) && points[end].agent == agent {
		end++
	}
	c.readDevice(ctx, cl, points[start:end])
}

// readAt is readFrom over the points annotate reads.
func (b *build) readAt(start int) error {
	b.c.readFrom(b.ctx, b.cl, b.unread, start)
	return nil
}

// readDevice reads one device's poll points in multi-varbind Gets bounded
// by Config.MaxVarBinds, two varbinds a point, so a round costs the device
// one exchange, or a few, rather than one per interface. The points a probe
// settles on Counter32 are read again together in the same pass: legacy
// gear pays one exchange more per device, once in each point's life. The
// points' mutexes are held throughout, serializing reads of one interface
// so a query-path baseline read and a parallel poll never interleave their
// delta computations.
func (c *Collector) readDevice(ctx context.Context, cl *snmp.Client, points []*pollPoint) {
	for _, p := range points {
		p.mu.Lock()
	}
	defer func() {
		for _, p := range points {
			p.mu.Unlock()
		}
	}()
	addr := c.name(points[0].agent)
	legacy := c.readChunksLocked(ctx, cl, addr, points)
	// A point that settles on Counter32 again here is read next time.
	c.readChunksLocked(ctx, cl, addr, legacy)
}

// readChunksLocked reads the points in Gets of up to MaxVarBinds varbinds
// and returns those that settled on Counter32 unread.
func (c *Collector) readChunksLocked(ctx context.Context, cl *snmp.Client, addr string, points []*pollPoint) (legacy []*pollPoint) {
	per := c.maxVarBinds() / 2
	for start := 0; start < len(points); start += per {
		legacy = c.readBatchLocked(ctx, cl, addr, points[start:min(start+per, len(points))], legacy)
	}
	return legacy
}

// readBatchLocked reads a chunk of the poll points of the device at addr
// (their mutexes held) in a single Get, timestamping the whole batch once,
// and appends to legacy the points it settled on Counter32 unread. A short
// response, or a point answering with an unexpected OID or kind, falls back
// to reading the points concerned alone, so one misbehaving varbind cannot
// poison a device's whole batch.
func (c *Collector) readBatchLocked(ctx context.Context, cl *snmp.Client, addr string, batch, legacy []*pollPoint) []*pollPoint {
	withRequest(2*len(batch)*pollOIDLen, func(req *request) {
		for _, p := range batch {
			req.oids = p.pollOIDs(req.oids, &req.arena)
		}
		oids := req.oids
		now := c.cfg.Sched.Now()
		err := cl.GetFunc(ctx, addr, oids, func(vbs []snmp.VarBind) {
			if len(vbs) != len(oids) {
				if len(batch) == 1 {
					batch[0].resync()
					return
				}
				// Malformed response: retry each interface on its own.
				for i := range batch {
					legacy = c.readBatchLocked(ctx, cl, addr, batch[i:i+1], legacy)
				}
				return
			}
			for i, p := range batch {
				in, out, r := p.applyCounterVarBinds(oids[2*i:2*i+2], vbs[2*i:2*i+2])
				switch {
				case r == readOK:
					c.applyDelta(p, in, out, now)
				case r == readLegacy:
					legacy = append(legacy, p)
				case len(batch) > 1:
					// This interface answered with an unexpected OID or kind
					// (partial error): re-read it alone, which re-probes.
					legacy = c.readBatchLocked(ctx, cl, addr, batch[i:i+1], legacy)
				}
			}
		})
		if err != nil {
			for _, p := range batch {
				p.havePrev = false // device unreachable; resync next time
			}
		}
	})
	return legacy
}

// Utilization returns the latest measured utilization for the directed
// pair of node IDs, if any.
func (c *Collector) Utilization(from, to string) (float64, bool) {
	s, ok := c.pred.History().Latest(collector.HistKey{From: from, To: to})
	return s.Bits, ok
}

// DropCaches empties the router, ARP and monitoring caches and the
// utilization history — the Fig 3 "cold" scenario on a running collector:
// it holds no router view, ARP entry or monitor, so the next query learns
// all it uses. The tables are cleared, not made anew, and keep the room
// they grew to, as a running daemon's do (DESIGN §7.1). The address names
// stay: an address's text never goes stale.
func (c *Collector) DropCaches() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.routers)
	clear(c.arp)
	clear(c.monitors)
	c.pred.Reset()
}

// DropDynamic empties only the dynamic data (monitors, their baselines and
// the utilization history), keeping the router views and ARP entries —
// the Fig 3 "warm-bridge" scenario (static warm, dynamic cold). Like
// DropCaches it clears the monitor table, keeping its room.
func (c *Collector) DropDynamic() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.monitors)
	c.pred.Reset()
}
