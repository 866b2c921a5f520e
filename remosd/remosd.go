// Package remosd embeds the Remos measurement daemon: the demo
// deployment over the in-repository network emulator and its serving
// stack — ASCII and XML wire protocols, directory service, host load
// collector, observability plane, continuous collection, snapshot plane,
// and the multi-tenant admission layer. Config is the one way to
// configure it; cmd/remosd sets its fields from flags. A single-master
// daemon always runs the snapshot plane, the poll plane and the watch
// plane, and answers QUERY, FLOWS and WATCH from one snapshot
// generation: MaxStale and SchedInterval must be positive, and Start
// refuses a Config where they are not.
//
//	cfg := remosd.DefaultConfig()
//	cfg.ListenASCII, cfg.ListenHTTP = "127.0.0.1:0", "127.0.0.1:0"
//	cfg.Tenants = map[string]remosd.Tenant{
//		"app": {Key: "sekrit", Limits: remosd.Limits{Rate: 50, Burst: 100}},
//	}
//	d, err := cfg.Start()
//	...
//	conn, err := remos.Dial("tcp://"+d.ASCIIAddr, remos.WithTenant("app", "sekrit"))
//	...
//	d.Close()
package remosd

import (
	"fmt"
	"maps"
	"net"
	"net/http"
	"net/netip"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"remos/internal/admission"
	"remos/internal/collector/hostcoll"
	"remos/internal/core"
	"remos/internal/directory"
	"remos/internal/hostload"
	"remos/internal/mib"
	"remos/internal/netsim"
	"remos/internal/obs"
	"remos/internal/proto"
	"remos/internal/serve"
	"remos/internal/sim"
	"remos/internal/snmp"
	"remos/internal/watch"
)

// Limits bounds one tenant's (or the anonymous pool's) use of the
// daemon. The zero value of any field means unlimited.
type Limits = admission.Limits

// Tenant is one configured identity: its shared key (empty means the
// id alone suffices) and its limits.
type Tenant = admission.TenantConfig

// The queue tiers a tenant's Limits.Tier may name; the zero tier is
// Interactive.
const (
	Interactive = admission.Interactive
	Batch       = admission.Batch
)

// Config holds every daemon setting; DefaultConfig mirrors the
// command-line defaults. Zero-value listen addresses disable their
// plane (except ListenASCII, which is required).
type Config struct {
	ListenASCII     string // ASCII protocol listen address
	ListenHTTP      string // XML/HTTP protocol ("" disables)
	ListenDirectory string // directory service ("" disables)
	ListenHostLoad  string // host load collector ("" disables)
	ListenObs       string // /metrics, /healthz, /debug/* ("" disables)

	Scenario    string // demo scenario: "twosite" or "campus"
	Parallelism int    // collector pipeline parallelism; 0 = GOMAXPROCS

	// MaxStale is the one staleness bound: the oldest reading a QUERY
	// or a FLOWS answers from the snapshot plane, and the widest gap the
	// scheduler leaves between two polls of a covered pair. It must be
	// positive.
	MaxStale time.Duration

	SchedInterval time.Duration // background poll base interval; must be positive
	BenchInterval time.Duration // wide-area benchmark round interval

	// Admission: the multi-tenant front end. The controller is built
	// when any of these are set, and it meters the two wire servers and
	// the host load listener alike; otherwise all three run ungated.
	Tenants      map[string]Tenant
	Anonymous    *Limits       // limits for unidentified connections
	MaxQueueWait time.Duration // queue-wait bound before shedding

	// Federation: when Domains > 1 the daemon runs in federated mode.
	// The scenario network is partitioned into Domains administrative
	// domains, this daemon serves domain index Domain as a federated
	// master (advertised into its directory replica with FedPriority),
	// and the wire servers answer through the federation router, which
	// stitches per-domain serving graphs at the declared border links.
	// FedPeers are the peer daemons' directory addresses; leases
	// replicate to them so every replica can route around a dead
	// master once its lease lapses.
	Domains     int
	Domain      int
	FedPeers    []string
	FedPriority int
	FedRefresh  time.Duration // heartbeat/refresh interval (default 1s)
	FedLeaseTTL time.Duration // advert lease lifetime (default 3×refresh)

	Logf func(format string, args ...any) // nil = silent
}

// DefaultConfig returns the settings cmd/remosd uses when no flags are
// given.
func DefaultConfig() Config {
	return Config{
		ListenASCII:     "127.0.0.1:3567",
		ListenHTTP:      "127.0.0.1:3568",
		ListenDirectory: "127.0.0.1:3569",
		ListenHostLoad:  "127.0.0.1:3570",
		ListenObs:       "127.0.0.1:3571",
		Scenario:        "twosite",
		MaxStale:        2 * time.Second,
		SchedInterval:   time.Second,
	}
}

// slowQuery is the trace duration from which /debug/queries flags a
// query slow.
const slowQuery = 500 * time.Millisecond

// HostInfo names one queryable demo host.
type HostInfo struct {
	Name string
	Addr netip.Addr
}

// Daemon is a running remosd. The *Addr fields carry the bound
// addresses (useful with ":0" listeners); Close tears the whole stack
// down in reverse start order.
type Daemon struct {
	ASCIIAddr     string
	HTTPAddr      string // "" when disabled
	DirectoryAddr string // "" when disabled
	HostLoadAddr  string // "" when disabled
	ObsAddr       string // "" when disabled
	Hosts         []HostInfo

	// FedDomain names the administrative domain this daemon serves in
	// federated mode ("" otherwise).
	FedDomain string

	// Metrics is the daemon's registry — the same one /metrics renders.
	Metrics *obs.Registry

	closeOnce sync.Once
	closers   []func()
}

// Close stops every plane the daemon started. It is idempotent.
func (d *Daemon) Close() error {
	d.closeOnce.Do(func() {
		for i := len(d.closers) - 1; i >= 0; i-- {
			d.closers[i]()
		}
	})
	return nil
}

func (d *Daemon) onClose(f func()) { d.closers = append(d.closers, f) }

// check rejects a Config Start cannot serve: a staleness bound or poll
// interval that is not positive, or a tenant tier the admission layer
// does not know.
func (cfg Config) check() error {
	if cfg.MaxStale <= 0 {
		return fmt.Errorf("remosd: max-stale %v is not positive", cfg.MaxStale)
	}
	if cfg.SchedInterval <= 0 {
		return fmt.Errorf("remosd: sched-interval %v is not positive", cfg.SchedInterval)
	}
	tiers := map[string]admission.Tier{}
	for id, t := range cfg.Tenants {
		tiers[id] = t.Limits.Tier
	}
	if cfg.Anonymous != nil {
		tiers[admission.AnonymousTenant] = cfg.Anonymous.Tier
	}
	for id, tier := range tiers {
		if tier < admission.TierDefault || tier > Batch {
			return fmt.Errorf("remosd: tenant %q: unknown priority tier %d", id, tier)
		}
	}
	return nil
}

// admissionController builds the controller for the Config's tenant
// section, or returns nil when no admission settings are present (every
// listener then runs ungated).
func (cfg Config) admissionController(s sim.Scheduler, reg *obs.Registry) *admission.Controller {
	if len(cfg.Tenants) == 0 && cfg.Anonymous == nil && cfg.MaxQueueWait == 0 {
		return nil
	}
	acfg := admission.Config{Tenants: maps.Clone(cfg.Tenants), MaxQueueWait: cfg.MaxQueueWait, Sched: s, Obs: reg}
	if cfg.Anonymous != nil {
		acfg.Anonymous = *cfg.Anonymous
	}
	return admission.New(acfg)
}

// stack is what the daemon serves: Start makes the clock, registry,
// trace ring and admission controller, a mode (singleMaster or federated)
// assembles the rest, and serve puts it on the network.
type stack struct {
	sim    *sim.Sim
	reg    *obs.Registry
	traces *obs.Ring
	ctrl   *admission.Controller // nil: every listener runs ungated

	answer serve.Answerer
	watch  *watch.Registry    // nil: no watch plane
	dir    *directory.Service // served on ListenDirectory

	health obs.HealthFunc
	debug  map[string]http.Handler // the mode's own routes on the obs mux

	// bound, when set, runs once both wire servers are listening and
	// before anything else starts: the federated master advertises the
	// ASCII address as its endpoint.
	bound func(asciiAddr string) error
}

// serve is the bring-up both modes share: the two wire servers, the
// directory listener, the observability mux, and the driver that
// advances the deployment's clock in step with the wall clock. Every
// listener it starts is registered on d for Close.
func (cfg Config) serve(d *Daemon, logf func(format string, args ...any), st stack) error {
	srv, err := serve.Listen(cfg.ListenASCII, cfg.ListenHTTP, st.answer, st.watch, st.ctrl, st.reg, st.traces)
	if err != nil {
		return fmt.Errorf("remosd: %w", err)
	}
	d.onClose(srv.Close)
	d.ASCIIAddr, d.HTTPAddr = srv.ASCIIAddr, srv.HTTPAddr
	logf("remosd: ASCII protocol on %s", d.ASCIIAddr)
	if d.HTTPAddr != "" {
		logf("remosd: XML protocol on http://%s", d.HTTPAddr)
	}
	if st.bound != nil {
		if err := st.bound(d.ASCIIAddr); err != nil {
			return err
		}
	}

	if cfg.ListenDirectory != "" {
		dirSrv := &directory.Server{Service: st.dir}
		daddr, err := dirSrv.ListenAndServe(cfg.ListenDirectory)
		if err != nil {
			return fmt.Errorf("remosd: directory listen: %w", err)
		}
		d.onClose(func() { dirSrv.Close() })
		d.DirectoryAddr = daddr
		logf("remosd: directory service on %s (collectors may REGISTER, peers may REPLICATE)", daddr)
	}

	if cfg.ListenObs != "" {
		oln, err := net.Listen("tcp", cfg.ListenObs)
		if err != nil {
			return fmt.Errorf("remosd: obs listen: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/", obs.Handler(st.reg, st.traces, st.health))
		for path, h := range st.debug {
			mux.Handle(path, h)
		}
		if st.ctrl != nil {
			mux.Handle("/debug/tenants", st.ctrl.DebugHandler())
		}
		osrv := &http.Server{Handler: mux}
		go osrv.Serve(oln)
		d.onClose(func() { osrv.Close() })
		d.ObsAddr = oln.Addr().String()
		logf("remosd: observability on http://%s (/metrics /healthz /debug/*)", d.ObsAddr)
	}

	logf("remosd: scenario %q; queryable hosts:", cfg.Scenario)
	for _, h := range d.Hosts {
		logf("remosd:   %-12s %s", h.Name, h.Addr)
	}

	// Drive the emulated network, the collectors' polling and the lease
	// heartbeats in step with the wall clock.
	stop := make(chan struct{})
	go st.sim.RunRealTime(50*time.Millisecond, stop)
	d.onClose(func() { close(stop) })
	return nil
}

// Start brings the configured daemon up. On error, everything already
// started is torn down before returning.
func (cfg Config) Start() (*Daemon, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	d := &Daemon{Metrics: obs.New()}
	registerRuntimeGauges(d.Metrics)
	st := stack{sim: sim.NewSim(), reg: d.Metrics, traces: obs.NewRing(128, slowQuery)}
	if st.ctrl = cfg.admissionController(st.sim, st.reg); st.ctrl != nil {
		d.onClose(st.ctrl.Close)
		logf("remosd: admission on (%d tenants, anonymous limits %v)", len(cfg.Tenants), cfg.Anonymous != nil)
	}
	assemble := cfg.singleMaster
	if cfg.Domains > 1 {
		assemble = cfg.federated
	}
	err := assemble(d, logf, &st)
	if err == nil {
		err = cfg.serve(d, logf, st)
	}
	if err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// registerRuntimeGauges exports the process's own state beside the
// serving metrics: live goroutines, heap in use, the most recent garbage
// collection's stop-the-world pause and, where /proc/self/fd is
// readable, open file descriptors.
func registerRuntimeGauges(reg *obs.Registry) {
	reg.GaugeFunc("remos_runtime_goroutines", "goroutines in the daemon process", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	reg.GaugeFunc("remos_runtime_heap_bytes", "bytes of allocated heap objects", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
	reg.GaugeFunc("remos_runtime_gc_pause_seconds", "stop-the-world pause of the most recent garbage collection", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return time.Duration(ms.PauseNs[(ms.NumGC+255)%256]).Seconds() // 0 before the first collection
	})
	if _, err := os.ReadDir("/proc/self/fd"); err == nil {
		reg.GaugeFunc("remos_runtime_open_fds", "open file descriptors of the daemon process", func() float64 {
			fds, _ := os.ReadDir("/proc/self/fd")
			return float64(len(fds))
		})
	}
}

// singleMaster assembles the single-master stack: the scenario's
// collector deployment, the serving planes over its first site's Master,
// and (unless disabled) the host load collector.
func (cfg Config) singleMaster(d *Daemon, logf func(format string, args ...any), st *stack) error {
	s, reg := st.sim, st.reg
	dep, hosts, err := buildScenario(s, cfg.Scenario, cfg.BenchInterval, core.Options{
		Parallelism: cfg.Parallelism,
		Obs:         reg,
	})
	if err != nil {
		return fmt.Errorf("remosd: %w", err)
	}
	d.onClose(dep.Stop)
	if err := dep.MeasureAllBenchmarks(); err != nil {
		logf("remosd: initial benchmarks: %v", err)
	}
	for _, h := range hosts {
		d.Hosts = append(d.Hosts, HostInfo{Name: h.Name, Addr: h.Addr()})
	}

	sv := serve.NewPlanes(s, dep.Sites[firstSite(dep)].Master, cfg.MaxStale, cfg.SchedInterval, reg, st.traces)
	d.onClose(sv.Close)
	logf("remosd: staleness bound %v (snapshot plane), parallelism %d (0=GOMAXPROCS)",
		cfg.MaxStale, cfg.Parallelism)
	// Preseed the demo pairs so their queries answer warm from the first
	// client on; watches add and remove their own targets.
	if len(hosts) >= 2 && len(hosts) <= 8 {
		for _, h := range hosts[1:] {
			sv.Poll.AddTarget([]netip.Addr{hosts[0].Addr(), h.Addr()})
		}
	}
	logf("remosd: background scheduler on (base %v, max %v); watch plane enabled",
		cfg.SchedInterval, serve.PollCap(cfg.MaxStale, cfg.SchedInterval))

	if cfg.ListenHostLoad != "" {
		// Host load: attach synthetic load signals to the demo hosts,
		// run a host load collector at 1 Hz, and serve it over the
		// ASCII protocol (remosctl load / WithHostLoad), metered like
		// the wire servers.
		var managed []netip.Addr
		for i, h := range hosts {
			gen := hostload.NewGenerator(hostload.Config{Seed: int64(100 + i)})
			h.SetLoadSource(gen.Next)
			h.SNMP.Reachable = true
			managed = append(managed, h.Addr())
		}
		mib.AttachAll(dep.Net, dep.Registry) // re-attach: hosts now reachable
		hc := hostcoll.New(hostcoll.Config{
			Client:        snmp.NewClient(dep.Transport, "public"),
			Sched:         s,
			Hosts:         managed,
			StreamPredict: "AR(16)",
		})
		d.onClose(hc.Stop)
		loadSrv := &proto.TCPServer{Collector: hc, Admission: st.ctrl, Obs: reg, Traces: st.traces}
		laddr, err := loadSrv.ListenAndServe(cfg.ListenHostLoad)
		if err != nil {
			return fmt.Errorf("remosd: host load listen: %w", err)
		}
		d.onClose(func() { loadSrv.Close() })
		d.HostLoadAddr = laddr
		logf("remosd: host load collector on %s", laddr)
	}

	st.answer, st.watch = sv.Answer, sv.Watch
	st.dir, st.health = dep.Directory, healthFunc(dep)
	return nil
}

// healthFunc reports per-collector liveness: each site's SNMP collector
// is healthy once it has completed a poll cycle recently (within three
// poll periods), and the Master is healthy by construction (it is a
// pure fan-out with no background activity).
func healthFunc(dep *core.Deployment) obs.HealthFunc {
	return func() []obs.ComponentHealth {
		var out []obs.ComponentHealth
		names := make([]string, 0, len(dep.Sites))
		for name := range dep.Sites {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			site := dep.Sites[name]
			if site.SNMP == nil {
				continue
			}
			h := obs.ComponentHealth{Component: site.SNMP.Name()}
			last := site.SNMP.LastPoll()
			if last.IsZero() {
				h.Detail = "no poll cycle completed yet"
			} else {
				// The collector stamps poll cycles on the deployment's
				// (simulated) clock; age them against the same clock.
				h.LastPoll = last
				h.LastPollAge = dep.Sim.Now().Sub(last)
				if h.LastPollAge <= 3*site.SNMP.PollInterval() {
					h.Healthy = true
				} else {
					h.Detail = fmt.Sprintf("last poll %v ago (interval %v)",
						h.LastPollAge.Round(time.Millisecond), site.SNMP.PollInterval())
				}
			}
			out = append(out, h)
			if site.Master != nil {
				out = append(out, obs.ComponentHealth{
					Component: site.Master.Name(), Healthy: true,
				})
			}
		}
		return out
	}
}

func firstSite(dep *core.Deployment) string {
	names := make([]string, 0, len(dep.Sites))
	for name := range dep.Sites {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return ""
	}
	return names[0]
}

// scenarioNet is one demo network before any collectors attach: the
// fabric itself, the hosts clients may query, the site specs a
// single-master deployment would attach collectors to, and an optional
// background-traffic starter. The federated boot path reuses the same
// fabric and partitions it into domains instead of attaching sites.
type scenarioNet struct {
	n     *netsim.Network
	hosts []*netsim.Device
	sites []core.SiteSpec
	// traffic starts the scenario's background load (nil = none). The
	// single-master path runs it so measurements move; the federated
	// path skips it so every daemon's copy of the fabric stays
	// identical and stitched answers match across the mesh.
	traffic func() error
}

// buildNetwork wires one of the demo fabrics.
func buildNetwork(s *sim.Sim, name string) (*scenarioNet, error) {
	n := netsim.New(s)
	switch name {
	case "twosite":
		app1 := n.AddHost("app1")
		app2 := n.AddHost("app2")
		benchA := n.AddHost("bench-a")
		benchB := n.AddHost("bench-b")
		srv := n.AddHost("srv")
		swA := n.AddSwitch("swA")
		swB := n.AddSwitch("swB")
		rA := n.AddRouter("rA")
		rB := n.AddRouter("rB")
		n.Connect(app1, swA, 100e6, time.Millisecond)
		n.Connect(app2, swA, 100e6, time.Millisecond)
		n.Connect(benchA, swA, 100e6, time.Millisecond)
		n.Connect(swA, rA, 1e9, time.Millisecond)
		n.Connect(rA, rB, 10e6, 40*time.Millisecond)
		n.Connect(rB, swB, 1e9, time.Millisecond)
		n.Connect(benchB, swB, 100e6, time.Millisecond)
		n.Connect(srv, swB, 100e6, time.Millisecond)
		n.AssignSubnets()
		n.ComputeRoutes()
		return &scenarioNet{
			n:     n,
			hosts: []*netsim.Device{app1, app2, srv, benchA, benchB},
			sites: []core.SiteSpec{
				{Name: "a", Switches: []*netsim.Device{swA}, BenchHost: benchA},
				{Name: "b", Switches: []*netsim.Device{swB}, BenchHost: benchB},
			},
			traffic: func() error {
				// Background load so measurements move.
				_, err := n.StartCrossTraffic(app2, srv, netsim.CrossTrafficSpec{
					Mean: 3e6, Jitter: 0.4, Period: 2 * time.Second, Seed: 7,
				})
				return err
			},
		}, nil
	case "campus":
		// A small campus: one wing per quadrant, 8 hosts each.
		var switches []*netsim.Device
		coreSw := n.AddSwitch("core-sw")
		switches = append(switches, coreSw)
		var hosts []*netsim.Device
		for w := 0; w < 4; w++ {
			r := n.AddRouter(fmt.Sprintf("gw%d", w))
			n.Connect(r, coreSw, 1e9, time.Millisecond)
			edge := n.AddSwitch(fmt.Sprintf("edge%d", w))
			switches = append(switches, edge)
			n.Connect(edge, r, 1e9, time.Millisecond)
			for h := 0; h < 8; h++ {
				host := n.AddHost(fmt.Sprintf("h%d-%d", w, h))
				n.Connect(host, edge, 100e6, time.Millisecond)
				hosts = append(hosts, host)
			}
		}
		n.AssignSubnets()
		n.ComputeRoutes()
		return &scenarioNet{
			n:     n,
			hosts: hosts[:8],
			sites: []core.SiteSpec{{Name: "campus", Switches: switches}},
		}, nil
	}
	return nil, fmt.Errorf("remosd: unknown scenario %q", name)
}

// buildScenario wires one of the demo networks with its single-master
// collector deployment. benchIval is the wide-area benchmark round
// interval (0 = benchcoll's default): the inter-site hop is measured by
// benchmarks, not SNMP, so it bounds how fresh WAN availability — and
// every watch predicate over it — can be.
func buildScenario(s *sim.Sim, name string, benchIval time.Duration, opts core.Options) (*core.Deployment, []*netsim.Device, error) {
	sn, err := buildNetwork(s, name)
	if err != nil {
		return nil, nil, err
	}
	dep := core.NewDeployment(s, sn.n, opts)
	for _, spec := range sn.sites {
		spec.BenchInterval = benchIval
		if _, err := dep.AddSite(spec); err != nil {
			return nil, nil, err
		}
	}
	if err := dep.Finish(); err != nil {
		return nil, nil, err
	}
	if sn.traffic != nil {
		if err := sn.traffic(); err != nil {
			return nil, nil, err
		}
	}
	return dep, sn.hosts, nil
}
