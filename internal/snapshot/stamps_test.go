package snapshot

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"remos/internal/collector"
	"remos/internal/netsim"
	"remos/internal/obs"
	"remos/internal/rerr"
	"remos/internal/sim"
	"remos/internal/topology"
)

// hostAtModel is the freshness bookkeeping the stamp vector replaced,
// kept as the reference: every applied host's instant in one map, whatever
// the graph holds, compared with now.Sub(at).
type hostAtModel map[netip.Addr]time.Time

func (m hostAtModel) apply(hosts []netip.Addr, at time.Time) {
	for _, h := range hosts {
		m[h] = at
	}
}

func (m hostAtModel) freshFor(hosts []netip.Addr, bound time.Duration, now time.Time) bool {
	for _, h := range hosts {
		at, ok := m[h]
		if !ok || now.Sub(at) > bound {
			return false
		}
	}
	return true
}

// world is a network that grows under a store: hosts of every address
// form the tree identifies (the 4-in-6 twin of an IPv4 host among them),
// polled before they are nodes, while they are, and — partial polls —
// while the poll does not mention them; and addresses that are polled and
// never become a node.
type world struct {
	rng      *rand.Rand
	switches []string
	links    [][2]string  // every link the network has, in the order it got them
	pool     []netip.Addr // hosts that are or will be nodes
	joined   int          // pool[:joined] are nodes
	strays   []netip.Addr // polled, never a node: rtr's interface address is one
	nobody   netip.Addr   // never polled, never a node
}

func newWorld(rng *rand.Rand) *world {
	w := &world{rng: rng, switches: []string{"sw0", "sw1"}, links: [][2]string{{"sw0", "sw1"}, {"sw1", "rtr"}}}
	plain := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	w.pool = []netip.Addr{plain, netip.AddrFrom16(plain.As16())} // the host and its twin
	for i := byte(2); i < 14; i++ {
		switch rng.Intn(4) {
		case 0:
			w.pool = append(w.pool, netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: i}))
		case 1:
			w.pool = append(w.pool, netip.AddrFrom16(netip.AddrFrom4([4]byte{10, 9, 0, i}).As16()))
		case 2:
			w.pool = append(w.pool, netip.AddrFrom16([16]byte{0xfe, 0x80, 15: i}).WithZone("eth0"))
		default:
			w.pool = append(w.pool, netip.AddrFrom4([4]byte{10, 0, 0, i}))
		}
	}
	rng.Shuffle(len(w.pool), func(i, j int) { w.pool[i], w.pool[j] = w.pool[j], w.pool[i] })
	w.strays = []netip.Addr{a("192.0.2.1"), a("192.0.2.2"), a("2001:db8::ffff")}
	w.nobody = a("203.0.113.9")
	for i := 0; i < 3; i++ {
		w.join()
	}
	return w
}

// join makes the next pool host a node; grow adds a switch or a chord.
func (w *world) join() {
	if w.joined < len(w.pool) {
		w.links = append(w.links, [2]string{w.switches[w.rng.Intn(len(w.switches))], w.pool[w.joined].String()})
		w.joined++
	}
}

func (w *world) grow() {
	if a, b := w.switches[w.rng.Intn(len(w.switches))], w.switches[w.rng.Intn(len(w.switches))]; a != b && w.rng.Intn(2) == 0 {
		w.links = append(w.links, [2]string{a, b})
		return
	}
	sw := fmt.Sprintf("sw%d", len(w.switches))
	w.links = append(w.links, [2]string{w.switches[w.rng.Intn(len(w.switches))], sw})
	w.switches = append(w.switches, sw)
}

// poll is what a collector walk reports: the whole network, or — a
// partial poll — the interior and the links of some of the hosts, each
// with readings of this moment.
func (w *world) poll(partial bool) *topology.Graph {
	g := topology.NewGraph()
	g.AddNode(topology.Node{ID: "rtr", Kind: topology.RouterNode, Addr: "192.0.2.1"})
	for _, sw := range w.switches {
		g.AddNode(topology.Node{ID: sw, Kind: topology.SwitchNode})
	}
	for _, h := range w.pool[:w.joined] {
		if !partial || w.rng.Intn(2) == 0 {
			g.AddNode(topology.Node{ID: h.String(), Kind: topology.HostNode, Addr: h.String()})
		}
	}
	for _, l := range w.links {
		if g.Node(l[0]) == nil || g.Node(l[1]) == nil {
			continue
		}
		g.AddLink(topology.Link{
			From: l[0], To: l[1],
			Capacity:   float64(10+w.rng.Intn(90)) * 1e6,
			UtilFromTo: float64(w.rng.Intn(9)) * 1e6,
			UtilToFrom: float64(w.rng.Intn(9)) * 1e6,
			Latency:    time.Duration(w.rng.Intn(10)) * time.Millisecond,
			Jitter:     time.Duration(w.rng.Intn(3)) * time.Millisecond * time.Duration(w.rng.Intn(2)),
		})
	}
	return g
}

// some draws 1..n addresses: mostly hosts, joined or not, now and then a
// stray, rarely the address nobody polls; repeats are welcome.
func (w *world) some(n int) []netip.Addr {
	out := make([]netip.Addr, 1+w.rng.Intn(n))
	for i := range out {
		switch r := w.rng.Intn(20); {
		case r == 0:
			out[i] = w.nobody
		case r < 4:
			out[i] = w.strays[w.rng.Intn(len(w.strays))]
		default:
			out[i] = w.pool[w.rng.Intn(len(w.pool))]
		}
	}
	return out
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, rerr.ErrNoRoute):
		return "no route"
	case errors.Is(err, rerr.ErrUnknownHost):
		return "unknown host"
	}
	return "other"
}

// checkFlows holds the snapshot path's answer — hosts resolved once,
// flows routed by number — to the index asked in text (word for word,
// errors too) and to the whole-graph calculation on the generation's own
// graph (paths, latency, jitter exactly; rates to rounding; the same kind
// of failure, which the whole graph words its own way for an unknown end).
func checkFlows(t *testing.T, s *Snapshot, flows []topology.AddrFlow) string {
	t.Helper()
	px := s.Paths()
	reqs := make([]topology.FlowRequest, len(flows))
	ends := make([]int32, 0, 2*len(flows))
	for i, f := range flows {
		reqs[i] = topology.FlowRequest{Src: f.Src.String(), Dst: f.Dst.String(), Demand: f.Demand}
		ends = append(ends, px.NodeOf(f.Src), px.NodeOf(f.Dst))
	}
	got := make([]topology.FlowPrediction, len(flows))
	gerr := px.FlowAllocAddrs(flows, ends, func(i int, avail float64, lat, jitter time.Duration, path []string) {
		got[i] = topology.FlowPrediction{Request: reqs[i], Available: avail, Latency: lat, Jitter: jitter, Path: path}
	})
	text, terr := px.FlowAlloc(reqs)
	if fmt.Sprint(gerr) != fmt.Sprint(terr) || errClass(gerr) != errClass(terr) {
		t.Fatalf("epoch %d %v: by number %v (%s), in text %v (%s)", s.Epoch(), flows, gerr, errClass(gerr), terr, errClass(terr))
	}
	whole, werr := s.Graph().FlowAlloc(reqs)
	if (werr == nil) != (gerr == nil) || (errClass(werr) == "no route") != (errClass(gerr) == "no route") ||
		(errClass(gerr) == "no route" && werr.Error() != gerr.Error()) {
		t.Fatalf("epoch %d %v: by number %v, whole graph %v", s.Epoch(), flows, gerr, werr)
	}
	if gerr != nil {
		return errClass(gerr)
	}
	for i, p := range got {
		w, x := whole[i], text[i]
		if !slices.Equal(p.Path, x.Path) || p.Available != x.Available || p.Latency != x.Latency || p.Jitter != x.Jitter {
			t.Fatalf("epoch %d flow %d: by number %+v\nin text %+v", s.Epoch(), i, p, x)
		}
		if !slices.Equal(p.Path, w.Path) || p.Latency != w.Latency || p.Jitter != w.Jitter ||
			math.Abs(p.Available-w.Available) > 1e-6*math.Max(1, w.Available) {
			t.Fatalf("epoch %d flow %d: by number %+v\nwhole graph %+v", s.Epoch(), i, p, w)
		}
	}
	return "ok"
}

// TestStampVectorMatchesHostAtModel drives the store and the model it
// replaced through seeded histories of applies — measurement-only polls,
// whole and partial; hosts, switches and links joining (a reshape); hosts
// polled that the graph does not hold, some for good and some until they
// join; instants before and after earlier ones — and after every apply
// asks both the same freshness questions and holds the generation's
// flow answers to its own graph.
func TestStampVectorMatchesHostAtModel(t *testing.T) {
	bounds := []time.Duration{-time.Second, 0, time.Second, 5 * time.Second, time.Minute, time.Hour}
	seen := map[string]int{}
	for seed := int64(0); seed < 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newWorld(rng)
		ck := newClock()
		reg := obs.New()
		st := New(Config{Now: ck.Now, Obs: reg})
		ref := hostAtModel{}
		reshapes := int64(0)
		for step := 0; step < 25; step++ {
			nodes := 0
			if cur := st.Current(); cur != nil {
				nodes = cur.Paths().NumNodes()
			}
			partial := false
			switch r := rng.Intn(10); {
			case r < 2:
				w.join()
			case r < 3:
				w.grow()
			default:
				partial = rng.Intn(3) == 0
			}
			ck.Advance(time.Duration(rng.Intn(4000)) * time.Millisecond)
			at := ck.Now()
			if rng.Intn(4) == 0 { // a slow walk's result landing after a quick one's
				at = at.Add(-time.Duration(rng.Intn(20000)) * time.Millisecond)
			}
			hosts := w.some(6)
			s := st.Apply(hosts, &collector.Result{Graph: w.poll(partial)}, at)
			ref.apply(hosts, at)
			if nodes != 0 && s.Paths().NumNodes() != nodes {
				reshapes++
			}

			for q := 0; q < 8; q++ {
				ask, bound := w.some(4), bounds[rng.Intn(len(bounds))]
				now := ck.Now().Add(time.Duration(rng.Intn(8000)-2000) * time.Millisecond)
				if rng.Intn(4) == 0 {
					now = now.Add(time.Duration(rng.Intn(7200)) * time.Second)
				}
				want := ref.freshFor(ask, bound, now)
				nums := make([]int32, len(ask))
				if got := s.freshFor(ask, nums, bound, now); got != want {
					t.Fatalf("seed %d step %d: FreshFor(%v, %v, +%v) = %v, the host map says %v",
						seed, step, ask, bound, now.Sub(at), got, want)
				}
				if got := s.FreshFor(ask, bound, now); got != want {
					t.Fatalf("seed %d step %d: FreshFor without numbers = %v, with them %v", seed, step, got, want)
				}
				for i, h := range ask {
					if want && nums[i] != s.Paths().NodeOf(h) {
						t.Fatalf("seed %d step %d: fresh %v numbered %v, %v is node %d", seed, step, ask, nums, h, s.Paths().NodeOf(h))
					}
				}
				seen[fmt.Sprint("fresh ", want)]++
			}
			for q := 0; q < 3; q++ {
				ends := w.some(8)
				flows := make([]topology.AddrFlow, len(ends)/2+1)
				for i := range flows {
					flows[i] = topology.AddrFlow{Src: ends[i], Dst: ends[len(ends)-1-i], Demand: float64(rng.Intn(3)) * 5e6}
				}
				seen[checkFlows(t, s, flows)]++
			}
		}
		// Nodes only ever join, so every reshape grew the node count or
		// (a chord) only the link count: the counter is at least the former.
		if got := reg.Counter("remos_snapshot_reshapes_total", "").Value(); got < reshapes {
			t.Fatalf("seed %d: %d reshapes counted, the node count moved %d times", seed, got, reshapes)
		}
	}
	for _, class := range []string{"fresh true", "fresh false", "ok", "unknown host"} {
		if seen[class] < 500 {
			t.Errorf("only %d checks ended %q", seen[class], class)
		}
	}
	if seen["other"] > 0 {
		t.Errorf("%d flow queries failed outside the routing classes", seen["other"])
	}
}

// TestInheritMovesStampsWithTheirNodes: across a reshape a stamp follows
// its host — to the overflow when the host's node leaves the graph, back
// into the vector when it enters — and a node nobody applied stays never.
func TestInheritMovesStampsWithTheirNodes(t *testing.T) {
	graph := func(hosts ...string) *topology.PathIndex {
		g := topology.NewGraph()
		g.AddNode(topology.Node{ID: "sw", Kind: topology.SwitchNode})
		for _, h := range hosts {
			g.AddNode(topology.Node{ID: h, Kind: topology.HostNode, Addr: h})
			g.AddLink(topology.Link{From: "sw", To: h, Capacity: 1e9})
		}
		return topology.NewPathIndex(g)
	}
	base := time.Unix(1000, 0)
	old := &Snapshot{paths: graph("10.0.0.1", "10.0.0.2", "10.0.0.3"), base: base}
	old.inherit(nil)
	old.stamp(a("10.0.0.1"), 1*time.Second)
	old.stamp(a("10.0.0.2"), 2*time.Second)
	old.stamp(a("10.0.0.9"), 9*time.Second) // not a node yet
	old.stamp(a("192.0.2.1"), 7*time.Second)

	next := &Snapshot{paths: graph("10.0.0.2", "10.0.0.3", "10.0.0.9", "10.0.0.10"), base: base}
	if !next.inherit(old) {
		t.Fatal("a different graph was not re-homed")
	}
	for _, tc := range []struct {
		host string
		want time.Duration
	}{
		{"10.0.0.1", 1 * time.Second},  // left: in the overflow
		{"10.0.0.2", 2 * time.Second},  // stayed, under a new number
		{"10.0.0.3", never},            // a node nobody applied
		{"10.0.0.9", 9 * time.Second},  // entered: out of the overflow
		{"10.0.0.10", never},           // entered, never applied
		{"192.0.2.1", 7 * time.Second}, // a stray stays one
	} {
		h := a(tc.host)
		fresh := next.FreshFor([]netip.Addr{h}, time.Second, base.Add(tc.want+time.Second))
		stale := next.FreshFor([]netip.Addr{h}, time.Second, base.Add(tc.want+time.Second+1))
		if tc.want == never {
			if next.FreshFor([]netip.Addr{h}, time.Hour, base) {
				t.Errorf("%s: fresh, nobody applied it", tc.host)
			}
		} else if !fresh || stale {
			t.Errorf("%s: stamp is not %v after the reshape (fresh at the bound %v, past it %v)", tc.host, tc.want, fresh, stale)
		}
	}
	if got := len(next.offGraph); got != 2 {
		t.Errorf("overflow holds %d hosts %v, want the one that left and the stray", got, next.offGraph)
	}
	if got := len(old.offGraph); got != 2 {
		t.Errorf("the predecessor's overflow was rewritten: %v", old.offGraph)
	}
}

// TestOffGraphOverflowIsBounded: hosts applied that the graph never holds
// cannot grow a generation without bound. At the cap the overflow starts
// over, which costs the dropped hosts a walk and nobody else anything.
func TestOffGraphOverflowIsBounded(t *testing.T) {
	ck := newClock()
	reg := obs.New()
	st := New(Config{Now: ck.Now, Obs: reg})
	stray := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{192, 0, byte(i >> 8), byte(i)}) }
	hosts := slices.Clone(testHosts)
	for i := 0; i < offGraphCap; i++ {
		hosts = append(hosts, stray(i))
	}
	full := st.Apply(hosts, &collector.Result{Graph: dumbbell()}, ck.Now())
	if len(full.offGraph) != offGraphCap || !full.FreshFor(hosts, time.Second, ck.Now()) {
		t.Fatalf("%d strays held at the cap of %d", len(full.offGraph), offGraphCap)
	}
	over := st.Apply([]netip.Addr{stray(0), stray(offGraphCap), stray(offGraphCap + 1)}, &collector.Result{Graph: dumbbell()}, ck.Now())
	if got := len(over.offGraph); got != 2 {
		t.Fatalf("past the cap the overflow holds %d hosts, want the two that came after it was dropped", got)
	}
	if got := reg.Gauge("remos_snapshot_offgraph_hosts", "").Value(); got != 2 {
		t.Fatalf("remos_snapshot_offgraph_hosts = %v, want 2", got)
	}
	for _, tc := range []struct {
		h    netip.Addr
		want bool
	}{
		{stray(0), false}, {stray(7), false}, // dropped with the map: a walk each
		{stray(offGraphCap), true}, {stray(offGraphCap + 1), true},
		{testHosts[0], true}, {testHosts[2], true}, // nodes are not in it
	} {
		if got := st.Fresh([]netip.Addr{tc.h}, time.Second) != nil; got != tc.want {
			t.Errorf("%v fresh = %v after the overflow was dropped, want %v", tc.h, got, tc.want)
		}
	}
	if len(full.offGraph) != offGraphCap || !full.FreshFor(hosts, time.Second, ck.Now()) {
		t.Fatal("dropping the overflow emptied the map the generation before still reads")
	}
}

// stepWall returns t with its wall reading moved by whole seconds and its
// monotonic reading where it was: what a step of the system clock (NTP,
// an operator) does to the next time.Now(). No API builds such a Time, so
// this reaches into the layout time.Time has had since Go 1.9 — wall's
// top bit says a monotonic reading is carried, the 33 bits below it are
// seconds, the low 30 nanoseconds — and the caller checks the result.
func stepWall(t time.Time, seconds int64) time.Time {
	wall := (*uint64)(unsafe.Pointer(&t))
	*wall = uint64(int64(*wall) + seconds<<30)
	return t
}

// TestFreshnessSurvivesWallClockStep: stamps are offsets taken with
// Time.Sub, so on a clock that carries a monotonic reading a host ages by
// what that reading advanced, wherever the wall reading jumped meanwhile —
// as now.Sub(at) did when stamps were Times. (Offsets of UnixNano would
// call a 3-second-old host fresh for an hour after the wall clock was set
// back one, and a host just applied stale after it was set forward.)
func TestFreshnessSurvivesWallClockStep(t *testing.T) {
	t0 := time.Now()
	for _, step := range []int64{-3600, 3600} {
		probe := stepWall(t0.Add(3*time.Second), step)
		if probe.Sub(t0) != 3*time.Second || probe.Round(0).Sub(t0.Round(0)) != time.Duration(step+3)*time.Second {
			t.Fatalf("stepWall no longer builds a stepped clock reading (time.Time's layout moved?): monotonic %v, wall %v",
				probe.Sub(t0), probe.Round(0).Sub(t0.Round(0)))
		}
		now := t0
		st := New(Config{Now: func() time.Time { return now }})
		ref := hostAtModel{}
		st.Apply(testHosts[:1], &collector.Result{Graph: dumbbell()}, t0)
		ref.apply(testHosts[:1], t0)
		// The wall clock steps; two seconds later another host is applied,
		// and a second after that both are asked about.
		at := stepWall(t0.Add(2*time.Second), step)
		st.Apply(testHosts[1:2], &collector.Result{Graph: dumbbell()}, at)
		ref.apply(testHosts[1:2], at)
		now = stepWall(t0.Add(3*time.Second), step)
		for _, tc := range []struct {
			hosts []netip.Addr
			bound time.Duration
			want  bool
		}{
			{testHosts[:1], 2 * time.Second, false}, // 3 s old
			{testHosts[:1], 3 * time.Second, true},
			{testHosts[1:2], 500 * time.Millisecond, false}, // 1 s old
			{testHosts[1:2], time.Second, true},
			{testHosts[:2], 3 * time.Second, true},
		} {
			if ref.freshFor(tc.hosts, tc.bound, now) != tc.want {
				t.Fatalf("step %+d s: the reference itself disagrees on %v within %v", step, tc.hosts, tc.bound)
			}
			if got := st.Fresh(tc.hosts, tc.bound) != nil; got != tc.want {
				t.Errorf("step %+d s: %v fresh within %v = %v, want %v", step, tc.hosts, tc.bound, got, tc.want)
			}
		}
	}
}

// TestStampReadersBesideApply: queries check freshness and resolve
// hosts on generation N while Apply builds N+1 from it — sharing N's
// shape, so copying its vector and sharing its overflow, or (every eighth
// apply grows the graph) re-homing every stamp. Meaningful under -race:
// with the vector patched in place instead of copied, or the shared
// overflow written instead of cloned, the detector reports the apply's
// write against these reads.
func TestStampReadersBesideApply(t *testing.T) {
	ck := newClock()
	st := New(Config{Now: ck.Now})
	stray := a("192.0.2.1")
	hosts := append(slices.Clone(testHosts), stray)
	g := dumbbell()
	st.Apply(hosts, &collector.Result{Graph: g}, ck.Now())

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			nodes := make([]int32, len(hosts))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := st.FreshNodes(hosts, nodes, time.Hour)
				if s == nil {
					t.Errorf("reader %d: hosts applied in every generation are not fresh", r)
					return
				}
				for k, h := range hosts {
					if want := s.Paths().NodeOf(h); nodes[k] != want || (h == stray) != (want == topology.NoNode) {
						t.Errorf("reader %d: generation %d numbers %v as %d, its index says %d", r, s.Epoch(), h, nodes[k], want)
						return
					}
				}
				if st.Fresh([]netip.Addr{a("203.0.113.9")}, time.Hour) != nil {
					t.Errorf("reader %d: a host nobody applied is fresh", r)
					return
				}
			}
		}(r)
	}
	for e := 0; e < 400; e++ {
		ck.Advance(time.Millisecond)
		if e%8 == 7 {
			id := netip.AddrFrom4([4]byte{10, 0, 3, byte(e / 8)}).String()
			g.AddNode(topology.Node{ID: id, Kind: topology.HostNode, Addr: id})
			g.AddLink(topology.Link{From: "r2", To: id, Capacity: 100e6})
		}
		st.Apply(hosts, &collector.Result{Graph: g.Clone()}, ck.Now())
	}
	close(stop)
	readers.Wait()
}

// TestReshapeAndOffGraphMetrics asserts the two freshness metrics by
// value: one apply of three grows the graph, one host of four is a stray.
func TestReshapeAndOffGraphMetrics(t *testing.T) {
	ck := newClock()
	reg := obs.New()
	st := New(Config{Now: ck.Now, Obs: reg})
	reshapes := reg.Counter("remos_snapshot_reshapes_total", "")
	offGraph := reg.Gauge("remos_snapshot_offgraph_hosts", "")

	st.Apply(testHosts, &collector.Result{Graph: dumbbell()}, ck.Now())
	st.Apply(testHosts, &collector.Result{Graph: dumbbell()}, ck.Now())
	if reshapes.Value() != 0 || offGraph.Value() != 0 {
		t.Fatalf("first generation and a measurement-only one: reshapes %d, off-graph hosts %v; want 0, 0", reshapes.Value(), offGraph.Value())
	}
	grown := dumbbell()
	grown.AddNode(topology.Node{ID: "10.0.2.2", Kind: topology.HostNode, Addr: "10.0.2.2"})
	if _, err := grown.AddLink(topology.Link{From: "r2", To: "10.0.2.2", Capacity: 100e6}); err != nil {
		t.Fatal(err)
	}
	st.Apply(append(slices.Clone(testHosts), a("192.0.2.1")), &collector.Result{Graph: grown}, ck.Now())
	if reshapes.Value() != 1 || offGraph.Value() != 1 {
		t.Fatalf("a grown graph and a stray: reshapes %d, off-graph hosts %v; want 1, 1", reshapes.Value(), offGraph.Value())
	}
	st.Apply(testHosts, &collector.Result{Graph: grown}, ck.Now())
	if reshapes.Value() != 1 || offGraph.Value() != 1 || reg.Counter("remos_snapshot_applies_total", "").Value() != 4 {
		t.Fatalf("after a fourth, measurement-only apply: reshapes %d, off-graph hosts %v", reshapes.Value(), offGraph.Value())
	}
}

// twoTier is netsim's default fabric — 10 204 nodes, what bench/'s scale
// workloads run on — as a poll result and its host list.
func twoTier(tb testing.TB) ([]netip.Addr, *collector.Result) {
	n := netsim.New(sim.NewSim())
	tt := netsim.BuildTwoTier(n, netsim.TwoTierSpec{})
	g, err := netsim.TopologyGraph(n)
	if err != nil {
		tb.Fatal(err)
	}
	hosts := make([]netip.Addr, len(tt.Hosts))
	for i, h := range tt.Hosts {
		hosts[i] = h.Addr()
	}
	return hosts, &collector.Result{Graph: g}
}

// TestShapePreservingApplyAllocationBudget pins what a measurement-only
// apply of all 10 000 hosts of the fabric allocates: 8 under go1.24, with
// and without -race — the generation, its stamp vector, the graph clone's
// link vector, the index and its metrics vector among them (113 while the
// clone copied two slabs and three presized maps, which the runtime makes
// of a hundred-odd pieces; 142 when the host map was cloned beside them).
// The budget is that count and a quarter more: a cloned map's hundred
// pieces fail it. Nothing per host, which would read 10 000 more, and no
// address-keyed map touched for a host the graph holds.
func TestShapePreservingApplyAllocationBudget(t *testing.T) {
	ck := newClock()
	st := New(Config{Now: ck.Now})
	hosts, res := twoTier(t)
	st.Apply(hosts, res, ck.Now())
	n := testing.AllocsPerRun(5, func() { st.Apply(hosts, res, ck.Now()) })
	t.Logf("a shape-preserving Apply of %d hosts: %.0f allocations", len(hosts), n)
	if n > applyAllocBudget {
		t.Fatalf("a shape-preserving Apply of %d hosts allocates %.0f times, want <= %d", len(hosts), n, applyAllocBudget)
	}
	if s := st.Current(); s.ownsOff || s.offGraph != nil {
		t.Fatalf("applying hosts the graph holds wrote an address-keyed map (%d entries)", len(s.offGraph))
	}
}

const applyAllocBudget = 10

// TestReshapingApplyAllocationBudget pins what an apply of all 10 000
// hosts of the fabric allocates onto a generation one host short: 127
// under go1.24, most of them the pieces of two maps of ten thousand-odd
// entries — the node table the generation copies before it takes the
// host in, and the new routing shape's ID numbering — beside the
// generation, the clone's links, the shape's arrays and the index. (230
// while a graph kept an address table and a pair table beside its node
// table, each copied before the host was added and the pair table rebuilt
// after.)
func TestReshapingApplyAllocationBudget(t *testing.T) {
	ck := newClock()
	hosts, res := twoTier(t)
	short := &collector.Result{Graph: lessHost(res.Graph, hosts[len(hosts)-1])}
	const runs = 3
	stores := make([]*Store, runs+1) // AllocsPerRun calls once more to warm up
	for i := range stores {
		stores[i] = New(Config{Now: ck.Now})
		stores[i].Apply(hosts, short, ck.Now())
	}
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		stores[next].Apply(hosts, res, ck.Now())
		next++
	})
	t.Logf("a reshaping Apply of %d hosts: %.0f allocations", len(hosts), n)
	if n > reshapeAllocBudget {
		t.Fatalf("a reshaping Apply of %d hosts allocates %.0f times, want <= %d", len(hosts), n, reshapeAllocBudget)
	}
	if last := hosts[len(hosts)-1].String(); stores[0].Current().Graph().Node(last) == nil {
		t.Fatalf("the reshaping Apply did not take %s in", last)
	}
}

const reshapeAllocBudget = 160

// lessHost is g without the host h and its links, built node by node.
func lessHost(g *topology.Graph, h netip.Addr) *topology.Graph {
	id := h.String()
	short := topology.NewGraph()
	for _, n := range g.Nodes() {
		if n.ID != id {
			short.AddNode(*n)
		}
	}
	for _, l := range g.Links() {
		if l.From != id && l.To != id {
			short.AddLink(*l)
		}
	}
	return short
}

// BenchmarkStoreApply is one Apply of every host of the 10 204-node
// fabric: onto a generation of the same shape (the stamp vector copied
// and patched), and onto one a host short (every stamp re-homed).
func BenchmarkStoreApply(b *testing.B) {
	hosts, res := twoTier(b)
	ck := newClock()
	b.Run("same-shape", func(b *testing.B) {
		st := New(Config{Now: ck.Now})
		st.Apply(hosts, res, ck.Now())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Apply(hosts, res, ck.Now())
		}
	})
	b.Run("reshape", func(b *testing.B) {
		// Each iteration's store starts from the fabric less one host,
		// built before the timer starts so allocs/op is the Apply's own.
		short := lessHost(res.Graph, hosts[len(hosts)-1])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st := New(Config{Now: ck.Now})
			st.Apply(hosts, &collector.Result{Graph: short}, ck.Now())
			b.StartTimer()
			st.Apply(hosts, res, ck.Now())
		}
	})
}

// BenchmarkStoreFresh is the freshness check of an 8-flow query's 11
// distinct hosts against the 10 204-node fabric's generation.
func BenchmarkStoreFresh(b *testing.B) {
	hosts, res := twoTier(b)
	ck := newClock()
	st := New(Config{Now: ck.Now})
	st.Apply(hosts, res, ck.Now())
	rng := rand.New(rand.NewSource(1))
	sets := make([][]netip.Addr, 64)
	for i := range sets {
		for _, j := range rng.Perm(len(hosts))[:11] {
			sets[i] = append(sets[i], hosts[j])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st.Fresh(sets[i%len(sets)], time.Hour) == nil {
			b.Fatal("stale")
		}
	}
}
