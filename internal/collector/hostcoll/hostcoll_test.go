package hostcoll

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/hostload"
	"remos/internal/mib"
	"remos/internal/netsim"
	"remos/internal/sim"
	"remos/internal/snmp"
)

// loadLab wires two hosts with load signals and agents, plus the
// collector sampling them at 1 Hz.
func loadLab(t testing.TB, spec string) (*sim.Sim, *Collector, map[string]*netsim.Device) {
	t.Helper()
	s := sim.NewSim()
	n := netsim.New(s)
	d := map[string]*netsim.Device{
		"busy": n.AddHost("busy"),
		"idle": n.AddHost("idle"),
		"sw":   n.AddSwitch("sw"),
	}
	n.Connect(d["busy"], d["sw"], 100e6, time.Millisecond)
	n.Connect(d["idle"], d["sw"], 100e6, time.Millisecond)
	n.AssignSubnets()
	n.ComputeRoutes()
	// Hosts run agents here (the host load sensor needs them).
	d["busy"].SNMP.Reachable = true
	d["idle"].SNMP.Reachable = true
	gen := hostload.NewGenerator(hostload.Config{Seed: 11, BaseLoad: 2.0})
	d["busy"].SetLoadSource(gen.Next)
	d["idle"].SetLoadSource(func() float64 { return 0.05 })
	reg := snmp.NewRegistry()
	mib.AttachAll(n, reg)
	c := New(Config{
		Client:        snmp.NewClient(&snmp.InProc{Registry: reg}, "public"),
		Sched:         s,
		Hosts:         []netip.Addr{d["busy"].Addr(), d["idle"].Addr()},
		StreamPredict: spec,
	})
	t.Cleanup(c.Stop)
	return s, c, d
}

func TestLoadSampling(t *testing.T) {
	s, c, d := loadLab(t, "")
	s.RunFor(30 * time.Second)
	if c.Samples() != 60 { // 2 hosts x 30 samples
		t.Fatalf("samples = %d, want 60", c.Samples())
	}
	idle, ok := c.Load(d["idle"].Addr())
	if !ok || math.Abs(idle-0.05) > 0.011 {
		t.Fatalf("idle load = %v (ok=%v), want ~0.05", idle, ok)
	}
	busy, ok := c.Load(d["busy"].Addr())
	if !ok || busy < 0.2 {
		t.Fatalf("busy load = %v (ok=%v), want substantial", busy, ok)
	}
	// History accumulates per host independently.
	res, err := c.Collect(collector.Query{Hosts: []netip.Addr{d["busy"].Addr()}, WithHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.History[LoadKey(d["busy"].Addr())]); got != 30 {
		t.Fatalf("busy history = %d samples, want 30", got)
	}
}

func TestLoadForecasting(t *testing.T) {
	s, c, d := loadLab(t, "AR(16)")
	s.RunFor(2 * time.Minute)
	fc, ok := c.Forecast(d["busy"].Addr())
	if !ok {
		t.Fatal("no forecast after 2 minutes at 1 Hz")
	}
	if len(fc.Values) != 30 {
		t.Fatalf("forecast horizon %d, want 30", len(fc.Values))
	}
	cur, _ := c.Load(d["busy"].Addr())
	if math.Abs(fc.Values[0]-cur) > 1.5 {
		t.Fatalf("one-step forecast %v far from current load %v", fc.Values[0], cur)
	}
	// Error bars grow with horizon (sane model).
	if fc.ErrVar[29] < fc.ErrVar[0] {
		t.Fatalf("errvar shrank with horizon: %v", fc.ErrVar)
	}
}

func TestCollectWithHistoryAndPredictions(t *testing.T) {
	s, c, d := loadLab(t, "AR(8)")
	s.RunFor(2 * time.Minute)
	res, err := c.Collect(collector.Query{
		Hosts:           []netip.Addr{d["busy"].Addr()},
		WithHistory:     true,
		WithPredictions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.Node(d["busy"].Addr().String()) == nil {
		t.Fatal("host node missing")
	}
	if len(res.History[LoadKey(d["busy"].Addr())]) == 0 {
		t.Fatal("load history missing")
	}
	if _, ok := res.Predictions[LoadKey(d["busy"].Addr())]; !ok {
		t.Fatal("load forecast missing")
	}
}

func TestCollectUnmanagedHostRejected(t *testing.T) {
	_, c, _ := loadLab(t, "")
	if _, err := c.Collect(collector.Query{
		Hosts: []netip.Addr{netip.MustParseAddr("192.0.2.1")},
	}); err == nil {
		t.Fatal("unmanaged host accepted")
	}
}

func TestUnreachableHostSkippedNotFatal(t *testing.T) {
	s, c, d := loadLab(t, "")
	_ = d
	s.RunFor(5 * time.Second)
	before := c.Samples()
	// Nothing answers for a host that loses its agent; sampling of the
	// others continues. (Simulate by pointing at a dead address.)
	c.cfg.Hosts = append(c.cfg.Hosts, netip.MustParseAddr("10.99.99.99"))
	s.RunFor(5 * time.Second)
	if c.Samples() <= before {
		t.Fatal("sampling stalled when one host went dark")
	}
}

func TestBadStreamSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad spec")
		}
	}()
	New(Config{StreamPredict: "BOGUS"})
}
