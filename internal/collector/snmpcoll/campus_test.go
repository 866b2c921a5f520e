package snmpcoll_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/collector/snmpcoll"
	"remos/internal/experiments"
	"remos/internal/mib"
	"remos/internal/netsim"
	"remos/internal/snmp"
	"remos/internal/topology"
)

// The campus tests run the phased discovery on the Fig 3 substrate
// (experiments.BuildCampus, which this package's internal tests cannot
// import): against the pairwise walk, and against its exchange budget.

func buildCampus(t testing.TB, hosts int) *experiments.Campus {
	t.Helper()
	camp, err := experiments.BuildCampus(hosts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(camp.Dep.Stop)
	return camp
}

func campusTwin(t testing.TB, camp *experiments.Campus, mut func(*snmpcoll.Config)) *snmpcoll.Collector {
	t.Helper()
	c := camp.Site.SNMP.Twin(mut)
	t.Cleanup(c.Stop)
	return c
}

func addrs(devs []*netsim.Device) []netip.Addr {
	out := make([]netip.Addr, len(devs))
	for i, d := range devs {
		out[i] = d.Addr()
	}
	return out
}

// pick draws n distinct campus hosts.
func pick(rnd *rand.Rand, camp *experiments.Campus, n int) []netip.Addr {
	out := make([]netip.Addr, n)
	for i, k := range rnd.Perm(len(camp.Hosts))[:n] {
		out[i] = camp.Hosts[k].Addr()
	}
	return out
}

func TestCampusDiscoveryMatchesPairwiseWalk(t *testing.T) {
	camp := buildCampus(t, 256)
	// Some load across and inside wings, so utilization orientation is
	// compared on more than zeros.
	for _, pair := range [][2]int{{0, 1}, {2, 7}, {4, 8}, {5, 64}} {
		if _, err := camp.Net.StartFlow(camp.Hosts[pair[0]], camp.Hosts[pair[1]], netsim.FlowSpec{Demand: 3e6}); err != nil {
			t.Fatal(err)
		}
	}
	// Hosts are interleaved across the four wings: every fourth one is in
	// wing 0.
	var wing0 []netip.Addr
	for i := 0; i < len(camp.Hosts); i += 4 {
		wing0 = append(wing0, camp.Hosts[i].Addr())
	}
	sets := [][]netip.Addr{
		addrs(camp.Hosts[:1]),
		addrs(camp.Hosts[:2]),
		{camp.Hosts[0].Addr(), camp.Hosts[4].Addr()}, // N = 2, one wing
		wing0[:32],
		{wing0[40], wing0[3], wing0[17], wing0[3], wing0[63]},
	}
	for seed := int64(1); seed <= 20; seed++ {
		sets = append(sets, pick(rand.New(rand.NewSource(seed)), camp, 32))
	}
	for i, hosts := range sets {
		// A fresh pair of collectors per set: every set is discovered cold.
		got, ref := campusTwin(t, camp, nil), campusTwin(t, camp, nil)
		t.Run(fmt.Sprintf("set%d", i), func(t *testing.T) {
			snmpcoll.AssertSameDiscovery(t, got, ref, hosts)
			if i%5 != 0 {
				return
			}
			// The same query repeated warm, after both pollers sampled.
			camp.Sim.RunFor(11 * time.Second)
			snmpcoll.AssertSameDiscovery(t, got, ref, hosts)
		})
	}
}

func TestCampusDiscoveryMatchesPairwiseWalkAfterMove(t *testing.T) {
	camp := buildCampus(t, 256)
	got, ref := campusTwin(t, camp, nil), campusTwin(t, camp, nil)
	hosts := pick(rand.New(rand.NewSource(42)), camp, 32)
	snmpcoll.AssertSameDiscovery(t, got, ref, hosts)
	// Move two of the queried hosts to another edge switch of their own
	// wing. The two collectors share one Bridge Collector, so whichever
	// runs first meets the stale database and has to repair it: once the
	// phased discovery goes first, once the pairwise walk.
	edgeOf := func(h netip.Addr, e int) *netsim.Device {
		var w, idx int
		fmt.Sscanf(camp.Net.DeviceByIP(h).Name, "h%d-%d", &w, &idx)
		return camp.Net.Device(fmt.Sprintf("edge%d-%d", w, (idx/16+e)%4))
	}
	camp.Net.MoveHost(camp.Net.DeviceByIP(hosts[3]), edgeOf(hosts[3], 1), 100e6, time.Millisecond)
	snmpcoll.AssertSameDiscovery(t, got, ref, hosts)
	camp.Net.MoveHost(camp.Net.DeviceByIP(hosts[9]), edgeOf(hosts[9], 2), 100e6, time.Millisecond)
	q := collector.Query{Hosts: hosts}
	want, _, err := ref.ReferenceCollect(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := got.Collect(q)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := snmpcoll.CanonicalDiscovery(got, res.Graph), snmpcoll.CanonicalDiscovery(ref, want.Graph); g != w {
		t.Fatalf("after the second move\n--- phased\n%s--- pairwise\n%s", g, w)
	}
}

// The reply — link order included — is a function of the query alone,
// whatever the parallelism the devices were asked with.
func TestCampusDiscoveryIndependentOfParallelism(t *testing.T) {
	camp := buildCampus(t, 256)
	hosts := pick(rand.New(rand.NewSource(7)), camp, 32)
	var texts [][]byte
	for _, par := range []int{1, 8, 8} {
		c := campusTwin(t, camp, func(cfg *snmpcoll.Config) { cfg.Parallelism = par })
		res, err := c.Collect(collector.Query{Hosts: hosts})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Graph.EncodeText(&buf); err != nil {
			t.Fatal(err)
		}
		texts = append(texts, buf.Bytes())
	}
	for i, text := range texts[1:] {
		if !bytes.Equal(texts[0], text) {
			t.Fatalf("run %d (Parallelism 8) encodes differently from Parallelism 1:\n%s\nvs\n%s", i+1, text, texts[0])
		}
	}
}

// moveHost moves a campus host to the edge switch e places after its own
// in its wing, and returns where the Bridge Collector still believes it:
// the switch's management address and port.
func moveHost(t testing.TB, camp *experiments.Campus, h netip.Addr, e int) (netip.Addr, int) {
	t.Helper()
	host := camp.Net.DeviceByIP(h)
	var w, idx int
	fmt.Sscanf(host.Name, "h%d-%d", &w, &idx)
	sw, port, ok := camp.Site.Bridge.Locate(collector.MAC(host.Ifaces()[0].MAC))
	if !ok {
		t.Fatalf("the Bridge Collector does not know %v", h)
	}
	camp.Net.MoveHost(host, camp.Net.Device(fmt.Sprintf("edge%d-%d", w, (idx/16+e)%4)), 100e6, time.Millisecond)
	return sw, port
}

// The counters' ground truth: after a cold 32-host query and one poll
// interval, every link direction of the warm answer carries the load the
// emulator routes over that direction, within 1 %. One interval is enough
// only because the cold query took every new poll point's baseline itself:
// a baseline read late, on the wrong interface or for the wrong direction
// shows here. Graph nodes are mapped to the emulator's devices by the IDs
// the collectors give them — hosts by address, routers by sysName,
// switches by management address — so a counter read under the wrong
// name, or applied to the wrong direction, shows as a link carrying
// another link's load. The check runs on the campus as built, and with a
// queried host moved just before the cold query, which then drops what it
// built on the stale location — baselines included — and builds again.
func TestCampusCountersMatchTheEmulator(t *testing.T) {
	for _, move := range []bool{false, true} {
		t.Run(fmt.Sprintf("moved=%t", move), func(t *testing.T) { countersMatchTheEmulator(t, move) })
	}
}

func countersMatchTheEmulator(t *testing.T, move bool) {
	camp := buildCampus(t, 256)
	var hosts []netip.Addr
	queried := map[int]bool{}
	ask := func(i int) {
		if !queried[i] && len(hosts) < 32 {
			queried[i] = true
			hosts = append(hosts, camp.Hosts[i].Addr())
		}
	}
	// The flows of TestCampusDiscoveryMatchesPairwiseWalk, their ends
	// among the queried hosts.
	for _, pair := range [][2]int{{0, 1}, {2, 7}, {4, 8}, {5, 64}} {
		if _, err := camp.Net.StartFlow(camp.Hosts[pair[0]], camp.Hosts[pair[1]], netsim.FlowSpec{Demand: 3e6}); err != nil {
			t.Fatal(err)
		}
		ask(pair[0])
		ask(pair[1])
	}
	for _, i := range rand.New(rand.NewSource(3)).Perm(len(camp.Hosts)) {
		ask(i)
	}
	// Let the counters run first, so that a baseline read in the wrong
	// direction, on another interface or at another time is off.
	camp.Sim.RunFor(3 * time.Second)
	gen := camp.Site.Bridge.Generation()
	if move {
		moveHost(t, camp, hosts[len(hosts)-1], 1) // no flow's end
	}
	c := campusTwin(t, camp, nil)
	q := collector.Query{Hosts: hosts}
	if _, err := c.Collect(q); err != nil {
		t.Fatalf("cold query: %v", err)
	}
	if rewalked := camp.Site.Bridge.Generation() != gen; rewalked != move {
		t.Fatalf("the cold query re-walked the bridges: %t, want %t", rewalked, move)
	}
	camp.Sim.RunFor(c.PollInterval())
	res, err := c.Collect(q)
	if err != nil {
		t.Fatalf("warm query: %v", err)
	}

	switches := map[string]*netsim.Device{}
	for _, d := range camp.Net.Devices() {
		if d.Kind == netsim.Switch {
			switches[d.ManagementAddr().String()] = d
		}
	}
	device := map[string]*netsim.Device{}
	for _, n := range res.Graph.Nodes() {
		var d *netsim.Device
		switch n.Kind {
		case topology.HostNode:
			d = camp.Net.DeviceByIP(netip.MustParseAddr(n.Addr))
		case topology.RouterNode:
			d = camp.Net.Device(n.ID)
		case topology.SwitchNode:
			d = switches[n.ID]
		}
		if d == nil {
			t.Fatalf("node %s (%v) names no device", n.ID, n.Kind)
		}
		device[n.ID] = d
	}
	type ends [2]*netsim.Device
	between := map[ends][]*netsim.Link{}
	for _, l := range camp.Net.Links() {
		a, b := l.A.Dev, l.B.Dev
		between[ends{a, b}] = append(between[ends{a, b}], l)
		between[ends{b, a}] = append(between[ends{b, a}], l)
	}
	loaded, lopsided := 0, 0
	for _, l := range res.Graph.Links() {
		from, to := device[l.From], device[l.To]
		emu := between[ends{from, to}]
		if len(emu) != 1 {
			t.Fatalf("link %s-%s: %d emulator links join %s and %s", l.From, l.To, len(emu), from.Name, to.Name)
		}
		fwd, rev := camp.Net.LinkRate(emu[0])
		if emu[0].A.Dev != from {
			fwd, rev = rev, fwd
		}
		for _, dir := range []struct {
			name      string
			got, want float64
		}{{l.From + "->" + l.To, l.UtilFromTo, fwd}, {l.To + "->" + l.From, l.UtilToFrom, rev}} {
			if math.Abs(dir.got-dir.want) > 0.01*dir.want {
				t.Errorf("%s carries %g b/s, the emulator routes %g b/s over it", dir.name, dir.got, dir.want)
			}
			if dir.want > 0 {
				loaded++
			}
		}
		if fwd != rev {
			lopsided++
		}
	}
	// The check must have had something to hold: loaded directions, and
	// links whose two directions differ, so that in and out cannot trade.
	if loaded < 16 || lopsided < 8 {
		t.Fatalf("%d loaded link directions, %d links loaded one way more than the other", loaded, lopsided)
	}
	t.Logf("%d links: %d directions loaded, %d links loaded one way more", len(res.Graph.Links()), loaded, lopsided)
}

// campusReply renders a reply the way the pins compare it: the graph's
// ASCII encoding, which fixes node and link order and link orientation,
// then the canonical discovery with the collector's poll points.
func campusReply(t testing.TB, c *snmpcoll.Collector, res *collector.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Graph.EncodeText(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(snmpcoll.CanonicalDiscovery(c, res.Graph))
	return buf.Bytes()
}

// TestCampusColdRepliesPinned pins, byte for byte, the replies to twenty
// seeded 32-host queries each discovered from empty caches, and a warm
// repeat of the first after the poller sampled. The digest changes only
// when discovery adds different links, in another order or orientation,
// or registers different poll points: a change meant to make discovery
// cheaper must leave it alone.
func TestCampusColdRepliesPinned(t *testing.T) {
	const want = "5cf1806923a653ce678c9b391e4bc960776af80d7a29a8fd3efd60852bdd3f45"
	camp := buildCampus(t, 256)
	c := campusTwin(t, camp, nil)
	sum := sha256.New()
	query := func(seed int64) {
		t.Helper()
		res, err := c.Collect(collector.Query{Hosts: pick(rand.New(rand.NewSource(seed)), camp, 32)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sum.Write(campusReply(t, c, res))
	}
	for seed := int64(1); seed <= 20; seed++ {
		c.DropCaches()
		query(seed)
	}
	camp.Sim.RunFor(11 * time.Second)
	query(1)
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Fatalf("cold campus replies digest %s, pinned %s", got, want)
	}
}

// BenchmarkCampusCollect times one 32-host query on the 256-host campus,
// cycling through 16 seeded host sets: cold drops every cache before each
// query, warm keeps them (the sets were each asked once before timing).
// It reports the SNMP exchanges a query costs as exchanges/op.
func BenchmarkCampusCollect(b *testing.B) {
	camp := buildCampus(b, 256)
	queries := make([]collector.Query, 16)
	for i := range queries {
		queries[i] = collector.Query{Hosts: pick(rand.New(rand.NewSource(int64(i+1))), camp, 32)}
	}
	for _, cold := range []bool{true, false} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			c := campusTwin(b, camp, func(cfg *snmpcoll.Config) { cfg.Parallelism = 1 })
			for _, q := range queries {
				if _, err := c.Collect(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			exchanges := 0
			for i := 0; i < b.N; i++ {
				if cold {
					c.DropCaches()
				}
				_, stats, err := c.CollectWithStats(queries[i%len(queries)])
				if err != nil {
					b.Fatal(err)
				}
				exchanges += stats.Requests
			}
			b.ReportMetric(float64(exchanges)/float64(b.N), "exchanges/op")
		})
	}
}

// recordingTransport notes, for every exchange, which device was asked
// what kinds of question. One request may carry several kinds — a
// switch's confirm Get carries forwarding entries and counters — so each
// varbind is classified on its own.
type recordingTransport struct {
	inner  snmp.Transport
	device map[string]string // agent address -> device name

	mu    sync.Mutex
	total int
	asked map[exchangeKind]int // requests carrying some of a (device, phase)'s varbinds
	binds map[exchangeKind]int // those varbinds
	sent  map[string]int       // requests per device
	// polled holds the poll points the baseline varbinds read, by agent
	// address and interface index.
	polled map[string]bool
}

type exchangeKind struct {
	device string
	phase  string
}

// phaseOf names the question a request's varbind asks.
func phaseOf(pdu snmp.PDUType, name snmp.OID) string {
	switch {
	case pdu == snmp.GetBulkRequest:
		return "walk"
	case name.HasPrefix(mib.IPNetToMediaPhys):
		return "arp"
	case name.HasPrefix(mib.Dot1dTpFdbPort):
		return "verify"
	case name.Cmp(mib.SysUpTime) == 0:
		return "validate"
	case name.HasPrefix(mib.IfTable), name.HasPrefix(mib.IfXTable):
		return "baseline"
	}
	return "other " + name.String()
}

func (r *recordingTransport) RoundTrip(addr string, req []byte) ([]byte, time.Duration, error) {
	msg, err := snmp.Unmarshal(req)
	if err != nil || len(msg.PDU.VarBinds) == 0 {
		return nil, 0, fmt.Errorf("recordingTransport: undecodable request to %s", addr)
	}
	dev := r.device[addr]
	r.mu.Lock()
	r.total++
	r.sent[dev]++
	carried := map[string]bool{}
	for _, vb := range msg.PDU.VarBinds {
		phase := phaseOf(msg.PDU.Type, vb.Name)
		k := exchangeKind{device: dev, phase: phase}
		if !carried[phase] {
			carried[phase] = true
			r.asked[k]++
		}
		r.binds[k]++
		if phase == "baseline" {
			r.polled[fmt.Sprintf("%s/%d", addr, vb.Name[len(vb.Name)-1])] = true
		}
	}
	r.mu.Unlock()
	return r.inner.RoundTrip(addr, req)
}

func (r *recordingTransport) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total, r.asked, r.binds = 0, map[exchangeKind]int{}, map[exchangeKind]int{}
	r.sent, r.polled = map[string]int{}, map[string]bool{}
}

// baselineBinds is how many varbinds the baseline phase carried in all.
func (r *recordingTransport) baselineBinds() (n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, b := range r.binds {
		if k.phase == "baseline" {
			n += b
		}
	}
	return n
}

// TestCampusExchangeBudget pins what a 32-host query on the 256-host
// campus may cost: at most 31 exchanges cold (2 over the most these seeds
// measured) and 30 warm (the pairwise walk with one-varbind Gets took 193
// and 40), and in each phase no device — whichever of its addresses it is
// asked under — gets more requests than its varbinds need under
// MaxVarBinds: one, for nearly all of them. Cold, a switch holding queried
// stations is asked once for everything — the stations' forwarding
// entries and its new poll points' baselines — whenever that fits one
// PDU. The baseline reads ask for one counter generation each: two
// varbinds a point.
func TestCampusExchangeBudget(t *testing.T) {
	camp := buildCampus(t, 256)
	rec := &recordingTransport{inner: camp.Dep.Transport, device: map[string]string{}}
	for _, d := range camp.Net.Devices() {
		for _, ifc := range d.Ifaces() {
			if ifc.IP.IsValid() {
				rec.device[ifc.IP.String()] = d.Name
			}
		}
		if mgmt := d.ManagementAddr(); mgmt.IsValid() {
			rec.device[mgmt.String()] = d.Name
		}
	}
	const maxVarBinds = 24 // the default
	need := func(binds int) int { return (binds + maxVarBinds - 1) / maxVarBinds }
	for seed := int64(1); seed <= 5; seed++ {
		rec.reset()
		c := campusTwin(t, camp, func(cfg *snmpcoll.Config) { cfg.Transport = rec })
		q := collector.Query{Hosts: pick(rand.New(rand.NewSource(seed)), camp, 32)}
		check := func(when string, budget int) {
			t.Helper()
			_, stats, err := c.CollectWithStats(q)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Requests != rec.total {
				t.Fatalf("seed %d %s: query metered %d requests, transport saw %d", seed, when, stats.Requests, rec.total)
			}
			t.Logf("seed %d %s: %d exchanges", seed, when, rec.total)
			if rec.total > budget {
				t.Errorf("seed %d %s: %d exchanges, budget %d: %v", seed, when, rec.total, budget, rec.asked)
			}
			for k, n := range rec.asked {
				if k.device == "" {
					t.Errorf("seed %d %s: request to an address no device holds", seed, when)
				}
				if k.phase == "walk" {
					// A walk takes a second request only to see the end of
					// a table the first one filled.
					if n > 2 {
						t.Errorf("seed %d %s: %s walked in %d requests", seed, when, k.device, n)
					}
					continue
				}
				if n > need(rec.binds[k]) {
					t.Errorf("seed %d %s: %s got %d %s requests for %d varbinds, %d would do",
						seed, when, k.device, n, k.phase, rec.binds[k], need(rec.binds[k]))
				}
			}
		}
		check("cold", 31)
		if binds, points := rec.baselineBinds(), len(rec.polled); points == 0 || binds > 2*points {
			t.Errorf("seed %d cold: the baseline phase read %d points in %d varbinds, want at most 2 a point",
				seed, points, binds)
		}
		for k := range rec.asked {
			if k.phase != "verify" {
				continue
			}
			carried := 0
			for j, b := range rec.binds {
				if j.device == k.device {
					carried += b
				}
			}
			if n := rec.sent[k.device]; n > need(carried) {
				t.Errorf("seed %d cold: switch %s holding queried stations got %d requests for %d varbinds, %d would do",
					seed, k.device, n, carried, need(carried))
			}
		}
		camp.Sim.RunFor(6 * time.Second) // settle the poller outside the count
		rec.reset()
		check("warm", 30)
	}
}

// TestLegacyEdgeSwitchesSettleOnCounter32: on a campus whose edge switches
// serve no high-capacity counters, the cold query's confirm Gets meet
// noSuchObject where its new points' counters should be. That settles
// those points on Counter32, for annotate to read, and is no station's
// move: the graph is the one the same query gets on the campus as built,
// and the bridges are not re-walked (the one re-walk would serve every
// station found moved).
func TestLegacyEdgeSwitchesSettleOnCounter32(t *testing.T) {
	modern, legacy := buildCampus(t, 256), buildCampus(t, 256)
	edges := map[netip.Addr]bool{}
	for _, d := range legacy.Net.Devices() {
		if !strings.HasPrefix(d.Name, "edge") {
			continue
		}
		view := mib.NewDeviceView(legacy.Net, d)
		view.NoHC = true
		agent := &snmp.Agent{Community: d.SNMP.Community, View: view}
		for _, ifc := range d.Ifaces() {
			if ifc.IP.IsValid() {
				legacy.Dep.Registry.Register(ifc.IP.String(), agent)
			}
		}
		legacy.Dep.Registry.Register(d.ManagementAddr().String(), agent)
		edges[d.ManagementAddr()] = true
	}
	for seed := int64(1); seed <= 3; seed++ {
		q := collector.Query{Hosts: pick(rand.New(rand.NewSource(seed)), modern, 32)}
		want, err := campusTwin(t, modern, nil).Collect(q)
		if err != nil {
			t.Fatal(err)
		}
		gen := legacy.Site.Bridge.Generation()
		c := campusTwin(t, legacy, nil)
		got, err := c.Collect(q)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := encodeText(t, got.Graph), encodeText(t, want.Graph); !bytes.Equal(g, w) {
			t.Fatalf("seed %d: legacy edge switches answer\n%s\nthe campus as built\n%s", seed, g, w)
		}
		if legacy.Site.Bridge.Generation() != gen {
			t.Fatalf("seed %d: the query re-walked the bridges", seed)
		}
		legacyPoints := 0
		for _, p := range c.Points() {
			switch {
			case !p.Baseline:
				t.Errorf("seed %d: point %v/%d has no baseline", seed, p.Agent, p.IfIndex)
			case edges[p.Agent] && !p.Counter32:
				t.Errorf("seed %d: point %v/%d on a legacy edge switch is not on Counter32", seed, p.Agent, p.IfIndex)
			case !edges[p.Agent] && !p.HC:
				t.Errorf("seed %d: point %v/%d is not on the high-capacity counters", seed, p.Agent, p.IfIndex)
			}
			if edges[p.Agent] {
				legacyPoints++
			}
		}
		if legacyPoints == 0 {
			t.Fatalf("seed %d: no point on a legacy edge switch", seed)
		}
	}
}
