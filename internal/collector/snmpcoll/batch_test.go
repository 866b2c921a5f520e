package snmpcoll

import (
	"fmt"
	"math"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/mib"
	"remos/internal/netsim"
	"remos/internal/sim"
	"remos/internal/snmp"
)

// newPollRig builds a collector over `agents` static devices of `ifaces`
// interfaces each, with every monitored interface already registered as a
// poll point — the pure polling workload, no discovery.
func newPollRig(tb testing.TB, agents, ifaces, maxVarBinds int) *Collector {
	return newPollRigServing(tb, agents, ifaces, maxVarBinds, func(a, i int) bool { return true })
}

// newPollRigServing is newPollRig over devices that serve the
// high-capacity counters of interface i of agent a only where hc says so.
func newPollRigServing(tb testing.TB, agents, ifaces, maxVarBinds int, hc func(a, i int) bool) *Collector {
	tb.Helper()
	reg := snmp.NewRegistry()
	for a := 1; a <= agents; a++ {
		binds := map[string]snmp.Value{}
		for i := 1; i <= ifaces; i++ {
			binds[fmt.Sprintf("1.3.6.1.2.1.2.2.1.10.%d", i)] = snmp.Counter(uint64(1000*a + i))
			binds[fmt.Sprintf("1.3.6.1.2.1.2.2.1.16.%d", i)] = snmp.Counter(uint64(2000*a + i))
			if hc(a, i) {
				binds[fmt.Sprintf("1.3.6.1.2.1.31.1.1.1.6.%d", i)] = snmp.Counter64Val(uint64(1000*a+i) + 1<<40)
				binds[fmt.Sprintf("1.3.6.1.2.1.31.1.1.1.10.%d", i)] = snmp.Counter64Val(uint64(2000*a+i) + 1<<40)
			}
		}
		view, err := snmp.NewStaticView(binds)
		if err != nil {
			tb.Fatal(err)
		}
		reg.Register(fmt.Sprintf("10.0.%d.1", a), &snmp.Agent{Community: "public", View: view})
	}
	c := New(Config{
		Name:      "poll-rig",
		Transport: &snmp.InProc{Registry: reg},
		Community: "public",
		// The wall clock, so that back-to-back pollOnce calls see time
		// pass and record samples; the periodic poller never comes due.
		Sched:        sim.Real{},
		PollInterval: time.Hour,
		MaxVarBinds:  maxVarBinds,
	})
	tb.Cleanup(c.Stop)
	for a := 1; a <= agents; a++ {
		addr := netip.MustParseAddr(fmt.Sprintf("10.0.%d.1", a))
		for i := 1; i <= ifaces; i++ {
			c.monitors[monitorKey{agent: addr, ifIndex: i}] = &pollPoint{
				agent: addr, ifIndex: i,
				from: fmt.Sprintf("r%d", a), to: fmt.Sprintf("n%d-%d", a, i),
				outIsFromTo: true,
			}
		}
	}
	return c
}

// meterPolls puts a fresh meter under c's poll client and returns it:
// with batching, its requests count exchanges (one per device per
// cycle), not interfaces.
func meterPolls(c *Collector) *snmp.Meter {
	m := &snmp.Meter{}
	c.pollClient.Meter = m
	return m
}

func (c *Collector) modes() map[counterMode]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[counterMode]int{}
	for _, p := range c.monitors {
		p.mu.Lock()
		out[p.mode]++
		p.mu.Unlock()
	}
	return out
}

// TestBatchedPollingExchangeCounts is the headline scaling claim: a poll
// cycle over 4 routers x 8 interfaces costs one exchange per device when
// batched, versus one per interface unbatched.
func TestBatchedPollingExchangeCounts(t *testing.T) {
	const agents, ifaces = 4, 8

	batched := newPollRig(t, agents, ifaces, 24)
	meter := meterPolls(batched)
	batched.pollOnce() // probe cycle: the HC pair only, 8 ifaces x 2 = 16 <= 24, one Get per device
	if reqs, vbs, _ := meter.Counts(); reqs != agents || vbs != agents*ifaces*2 {
		t.Fatalf("probe cycle = %d exchanges / %d varbinds, want %d / %d",
			reqs, vbs, agents, agents*ifaces*2)
	}
	if m := batched.modes(); m[modeHC] != agents*ifaces {
		t.Fatalf("after probe, modes = %v, want all %d in modeHC", m, agents*ifaces)
	}
	meter.Reset()
	batched.pollOnce() // settled: 8 ifaces x 2 varbinds = 16 <= 24, one Get per device
	if reqs, vbs, _ := meter.Counts(); reqs != agents || vbs != agents*ifaces*2 {
		t.Fatalf("batched cycle = %d exchanges / %d varbinds, want %d / %d",
			reqs, vbs, agents, agents*ifaces*2)
	}

	serial := newPollRig(t, agents, ifaces, 2)
	serial.pollOnce() // probe
	meter = meterPolls(serial)
	serial.pollOnce() // MaxVarBinds 2 = one interface per PDU
	if reqs, _, _ := meter.Counts(); reqs != agents*ifaces {
		t.Fatalf("serial cycle = %d exchanges, want %d (one per interface)", reqs, agents*ifaces)
	}
}

// TestBatchedPollingParity: batching must not change a single recorded
// sample — identical rigs polled with 1 vs 12 interfaces per PDU produce
// byte-identical measurement histories.
func TestBatchedPollingParity(t *testing.T) {
	run := func(mut func(*Config)) map[collector.HistKey][]collector.Sample {
		st := newSite(t, mut)
		if _, err := st.n.StartFlow(st.d["h1"], st.d["h2"], netsim.FlowSpec{Demand: 4e6}); err != nil {
			t.Fatal(err)
		}
		q := collector.Query{Hosts: []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")}}
		if _, err := st.sc.Collect(q); err != nil {
			t.Fatal(err)
		}
		st.s.RunFor(30 * time.Second)
		return st.sc.pred.History().Snapshot()
	}
	serial := run(func(c *Config) { c.MaxVarBinds = 2 })
	batched := run(func(c *Config) { c.MaxVarBinds = 24 })
	if !reflect.DeepEqual(serial, batched) {
		t.Fatalf("batched history differs from serial:\nserial:  %v\nbatched: %v", serial, batched)
	}
}

// attachNoHC replaces every device's agent with one whose view omits the
// ifXTable high-capacity counters, modeling legacy gear.
func attachNoHC(st *site) {
	for _, d := range st.n.Devices() {
		if !d.SNMP.Reachable {
			continue
		}
		v := mib.NewDeviceView(st.n, d)
		v.NoHC = true
		agent := &snmp.Agent{Community: d.SNMP.Community, View: v}
		for _, ifc := range d.Ifaces() {
			if ifc.IP.IsValid() {
				st.reg.Register(ifc.IP.String(), agent)
			}
		}
		if mgmt := d.ManagementAddr(); mgmt.IsValid() {
			st.reg.Register(mgmt.String(), agent)
		}
	}
}

func TestNoHCFallsBackToCounter32(t *testing.T) {
	st := newSite(t, nil)
	attachNoHC(st)
	if _, err := st.n.StartFlow(st.d["h1"], st.d["h2"], netsim.FlowSpec{Demand: 4e6}); err != nil {
		t.Fatal(err)
	}
	q := collector.Query{Hosts: []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")}}
	if _, err := st.sc.Collect(q); err != nil {
		t.Fatal(err)
	}
	st.s.RunFor(11 * time.Second)
	if m := st.sc.modes(); m[mode32] == 0 || m[modeHC] != 0 || m[modeProbe] != 0 {
		t.Fatalf("modes on HC-less devices = %v, want all mode32", m)
	}
	util, ok := st.sc.Utilization("r1", "r2")
	if !ok || math.Abs(util-4e6) > 4e5 {
		t.Fatalf("Counter32 fallback utilization = %v (ok=%v), want ~4e6", util, ok)
	}
}

// TestNoHCProbeCostsOneExchangeMore pins what gear without high-capacity
// counters pays for the HC-first probe: a probe cycle costs each device
// exactly two exchanges — the HC probe, then one batched Counter32 read,
// not one per interface — after which every point has a Counter32
// baseline, and the next cycle is one exchange per device again.
func TestNoHCProbeCostsOneExchangeMore(t *testing.T) {
	st := newSite(t, nil)
	attachNoHC(st)
	q := collector.Query{Hosts: []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")}}
	if _, err := st.sc.Collect(q); err != nil {
		t.Fatal(err)
	}
	// Every point probes again on the next cycle.
	devices := map[netip.Addr]bool{}
	st.sc.mu.Lock()
	for _, p := range st.sc.monitors {
		p.mu.Lock()
		p.resync()
		p.mu.Unlock()
		devices[p.agent] = true
	}
	points := len(st.sc.monitors)
	st.sc.mu.Unlock()

	meter := meterPolls(st.sc)
	st.sc.pollOnce()
	if reqs, vbs, _ := meter.Counts(); reqs != 2*len(devices) || vbs != 4*points {
		t.Fatalf("probe cycle on %d HC-less devices, %d points = %d exchanges / %d varbinds, want %d / %d",
			len(devices), points, reqs, vbs, 2*len(devices), 4*points)
	}
	if m := st.sc.modes(); m[mode32] != points {
		t.Fatalf("modes after the probe cycle = %v, want all %d mode32", m, points)
	}
	st.sc.mu.Lock()
	for _, p := range st.sc.monitors {
		if !p.havePrev {
			t.Errorf("point %v/%d has no Counter32 baseline after the probe cycle", p.agent, p.ifIndex)
		}
	}
	st.sc.mu.Unlock()
	meter.Reset()
	st.sc.pollOnce()
	if reqs, _, _ := meter.Counts(); reqs != len(devices) {
		t.Fatalf("settled cycle = %d exchanges, want %d", reqs, len(devices))
	}
}

// TestMixedDeviceSettlesEachInterface: on devices serving HC counters for
// some interfaces only, the probe cycle settles each point on its own
// generation (two exchanges a device), and from then on a device's points
// of both generations are read together, in one.
func TestMixedDeviceSettlesEachInterface(t *testing.T) {
	const agents, ifaces = 2, 8
	hc := func(a, i int) bool { return (a+i)%2 == 0 }
	c := newPollRigServing(t, agents, ifaces, 24, hc)
	meter := meterPolls(c)
	c.pollOnce()
	if reqs, vbs, _ := meter.Counts(); reqs != 2*agents || vbs != agents*ifaces*2+agents*ifaces {
		t.Fatalf("probe cycle = %d exchanges / %d varbinds, want %d / %d",
			reqs, vbs, 2*agents, agents*ifaces*2+agents*ifaces)
	}
	meter.Reset()
	c.pollOnce()
	if reqs, vbs, _ := meter.Counts(); reqs != agents || vbs != agents*ifaces*2 {
		t.Fatalf("settled cycle = %d exchanges / %d varbinds, want %d / %d", reqs, vbs, agents, agents*ifaces*2)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for mk, p := range c.monitors {
		want := mode32
		if hc(int(mk.agent.As4()[2]), mk.ifIndex) {
			want = modeHC
		}
		if p.mode != want {
			t.Errorf("%v/%d settled on mode %d, want %d", mk.agent, mk.ifIndex, p.mode, want)
		}
		if _, ok := c.Utilization(p.from, p.to); !ok {
			t.Errorf("%v/%d recorded no sample", mk.agent, mk.ifIndex)
		}
	}
}

func TestCounter32WrapWithNoHC(t *testing.T) {
	st := newSite(t, nil)
	attachNoHC(st)
	// 10 Mbit/s wraps a Counter32 in ~57 min; run past a wrap.
	st.n.StartFlow(st.d["h1"], st.d["h2"], netsim.FlowSpec{Demand: 10e6})
	if _, err := st.sc.Collect(collector.Query{
		Hosts: []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")},
	}); err != nil {
		t.Fatal(err)
	}
	st.s.RunFor(4000 * time.Second)
	util, ok := st.sc.Utilization("r1", "r2")
	if !ok {
		t.Fatal("no utilization recorded across the Counter32 wrap")
	}
	if math.Abs(util-10e6) > 1e6 {
		t.Fatalf("post-wrap utilization %v, want ~10e6", util)
	}
}

// TestHCCountersSurviveLongInterval: at 10 Mbit/s a 30-minute poll interval
// moves the octet counters by more than 2^31, which is indistinguishable
// from a reset in 32-bit arithmetic — legacy counters can only resync, so
// no sample is ever recorded. The high-capacity counters measure it fine.
func TestHCCountersSurviveLongInterval(t *testing.T) {
	long := func(c *Config) { c.PollInterval = 1800 * time.Second }
	drive := func(st *site) {
		st.n.StartFlow(st.d["h1"], st.d["h2"], netsim.FlowSpec{Demand: 10e6})
		if _, err := st.sc.Collect(collector.Query{
			Hosts: []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")},
		}); err != nil {
			t.Fatal(err)
		}
		st.s.RunFor(3700 * time.Second)
	}

	hc := newSite(t, long)
	drive(hc)
	util, ok := hc.sc.Utilization("r1", "r2")
	if !ok || math.Abs(util-10e6) > 1e6 {
		t.Fatalf("HC utilization over 30-min interval = %v (ok=%v), want ~10e6", util, ok)
	}

	legacy := newSite(t, long)
	attachNoHC(legacy)
	drive(legacy)
	if util, ok := legacy.sc.Utilization("r1", "r2"); ok {
		t.Fatalf("Counter32-only device recorded %v over an interval that wraps past 2^31; "+
			"the ambiguous delta should have been discarded", util)
	}
}

// hcToggleView serves a full table but can drop the ifXTable mid-flight,
// like a device losing its high-capacity counters across a firmware
// change.
type hcToggleView struct {
	full, legacy *snmp.Table

	mu   sync.Mutex
	noHC bool
}

func (v *hcToggleView) dropHC() {
	v.mu.Lock()
	v.noHC = true
	v.mu.Unlock()
}

func (v *hcToggleView) Table() *snmp.Table {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.noHC {
		return v.legacy
	}
	return v.full
}

// TestPartialErrorReprobesInterface: when a device stops serving its HC
// counters, the batched read sees unexpected kinds for those varbinds,
// falls back to per-interface reads, and the affected points re-probe down
// to Counter32 — without poisoning the rest of the cycle.
func TestPartialErrorReprobesInterface(t *testing.T) {
	const ifaces = 4
	reg := snmp.NewRegistry()
	binds := map[string]snmp.Value{}
	for i := 1; i <= ifaces; i++ {
		binds[fmt.Sprintf("1.3.6.1.2.1.2.2.1.10.%d", i)] = snmp.Counter(uint64(100 * i))
		binds[fmt.Sprintf("1.3.6.1.2.1.2.2.1.16.%d", i)] = snmp.Counter(uint64(200 * i))
		binds[fmt.Sprintf("1.3.6.1.2.1.31.1.1.1.6.%d", i)] = snmp.Counter64Val(uint64(100 * i))
		binds[fmt.Sprintf("1.3.6.1.2.1.31.1.1.1.10.%d", i)] = snmp.Counter64Val(uint64(200 * i))
	}
	full, err := snmp.NewStaticView(binds)
	if err != nil {
		t.Fatal(err)
	}
	for k := range binds {
		if snmp.MustParseOID(k).HasPrefix(mib.IfXTable) {
			delete(binds, k)
		}
	}
	legacy, err := snmp.NewStaticView(binds)
	if err != nil {
		t.Fatal(err)
	}
	view := &hcToggleView{full: full, legacy: legacy}
	reg.Register("10.0.1.1", &snmp.Agent{Community: "public", View: view})
	c := New(Config{
		Transport:   &snmp.InProc{Registry: reg},
		Community:   "public",
		Sched:       sim.NewSim(),
		MaxVarBinds: 24,
	})
	t.Cleanup(c.Stop)
	addr := netip.MustParseAddr("10.0.1.1")
	for i := 1; i <= ifaces; i++ {
		c.monitors[monitorKey{agent: addr, ifIndex: i}] = &pollPoint{
			agent: addr, ifIndex: i,
			from: "r1", to: fmt.Sprintf("n%d", i), outIsFromTo: true,
		}
	}

	c.pollOnce() // probe: settles on HC
	if m := c.modes(); m[modeHC] != ifaces {
		t.Fatalf("modes after probe = %v, want all modeHC", m)
	}
	view.dropHC()
	c.pollOnce() // batch fails per varbind; each point re-reads and re-probes
	if m := c.modes(); m[mode32] != ifaces {
		t.Fatalf("modes after HC loss = %v, want all mode32", m)
	}
	meter := meterPolls(c)
	c.pollOnce() // settled again: back to one exchange for the device
	if reqs, _, _ := meter.Counts(); reqs != 1 {
		t.Fatalf("post-recovery cycle = %d exchanges, want 1", reqs)
	}
}

// BenchmarkPollBatchedVsSerial compares one poll cycle over 4 devices x 8
// interfaces with device-batched PDUs against per-interface exchanges.
func BenchmarkPollBatchedVsSerial(b *testing.B) {
	for _, bc := range []struct {
		name        string
		maxVarBinds int
	}{
		{"Batched24", 24},
		{"Serial", 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := newPollRig(b, 4, 8, bc.maxVarBinds)
			c.pollOnce() // settle modes outside the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.pollOnce()
			}
		})
	}
}
