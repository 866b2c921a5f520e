package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"remos/internal/collector"
	"remos/internal/collector/qcache"
	"remos/internal/core"
	"remos/internal/directory"
	"remos/internal/experiments"
	"remos/internal/proto"
	"remos/internal/snmp"
	"remos/internal/topology"
)

// The cold workload: Fig. 3's cold case on the 256-host campus. One
// TCPClient issues 32-host topology QUERYs; before each one, outside the
// timed call, the SNMP Collector's caches are dropped and the query's
// cache slot invalidated, so every query walks qcache -> master ->
// snmpcoll -> BER -> the mib agents and ships the discovered graph back
// through the ASCII graph codec.

const (
	coldCampusHosts = 256
	coldQueryHosts  = 32
	// coldMixLen distinct queries; at ~200 queries/s a 2 s round sees
	// each a few times.
	coldMixLen = 64
)

// coldQuery is one generated query and what its reply must contain.
type coldQuery struct {
	hosts    []netip.Addr
	gateways []string // the distinct first-hop routers of the hosts, by sysName
	// far is one queried host behind each gateway other than the first
	// host's: the reply must route hosts[0] to each of them.
	far []netip.Addr
}

type coldPlan struct {
	queries []coldQuery
}

func planCold(seed int64) (*coldPlan, error) {
	camp, err := experiments.BuildCampus(coldCampusHosts)
	if err != nil {
		return nil, err
	}
	camp.Dep.Stop()
	rnd := rand.New(rand.NewSource(seed))
	p := &coldPlan{}
	for q := 0; q < coldMixLen; q++ {
		var cq coldQuery
		seenGW := map[netip.Addr]bool{}
		for _, i := range rnd.Perm(len(camp.Hosts))[:coldQueryHosts] {
			h := camp.Hosts[i]
			cq.hosts = append(cq.hosts, h.Addr())
			gw := camp.Net.DeviceByIP(h.Gateway)
			if gw == nil {
				return nil, fmt.Errorf("campus host %s has no gateway", h.Addr())
			}
			if !seenGW[h.Gateway] {
				seenGW[h.Gateway] = true
				cq.gateways = append(cq.gateways, gw.Name)
				if len(cq.gateways) > 1 {
					cq.far = append(cq.far, h.Addr())
				}
			}
		}
		p.queries = append(p.queries, cq)
	}
	return p, nil
}

// checkReply is the cold oracle: the reply graph must hold every queried
// host and every host's gateway router (emulator ground truth:
// Device.Gateway; the collector names a router node by its sysName),
// and must join the first host to a host behind each other gateway — the
// gateway chain across the campus core.
func (cq *coldQuery) checkReply(g *topology.Graph) error {
	if g == nil {
		return fmt.Errorf("reply carries no graph")
	}
	for _, h := range cq.hosts {
		if g.NodeByAddr(h.String()) == nil {
			return fmt.Errorf("reply graph lacks queried host %s", h)
		}
	}
	for _, gw := range cq.gateways {
		if g.Node(gw) == nil {
			return fmt.Errorf("reply graph lacks gateway %s", gw)
		}
	}
	from := g.NodeByAddr(cq.hosts[0].String()).ID
	for _, h := range cq.far {
		if _, err := g.Path(from, g.NodeByAddr(h.String()).ID); err != nil {
			return fmt.Errorf("reply graph does not join %s to %s: %w", cq.hosts[0], h, err)
		}
	}
	return nil
}

func coldWorkload(name, why string) *workload {
	return &workload{name: name, why: why, prepare: func(seed int64) (func() (*rig, error), error) {
		plan, err := planCold(seed)
		if err != nil {
			return nil, err
		}
		return func() (*rig, error) { return buildCold(plan) }, nil
	}}
}

func buildCold(plan *coldPlan) (*rig, error) {
	// The campus layout is experiments.BuildCampus's; its collectors are
	// rebuilt over the same emulated network with the transport seam
	// interposed, because a collector captures Deployment.Transport when
	// its site is added.
	camp, err := experiments.BuildCampus(coldCampusHosts)
	if err != nil {
		return nil, err
	}
	camp.Dep.Stop()
	tr := newTracer()
	// Parallelism 1: over snmp.InProc a round trip returns at once, so
	// parallel device walks have no waiting to overlap and only add
	// scheduler traffic (on two Ps, serial walks measured a quarter
	// faster and steadier; see README, "Findings"). On the one P the rigs
	// run on the default would resolve to 1 too; the pin says so.
	dep := core.NewDeployment(camp.Sim, camp.Net, core.Options{Parallelism: 1})
	transport := &tracedTransport{inner: dep.Transport, tr: tr, switches: map[string]bool{}}
	for _, sw := range camp.Site.Spec.Switches {
		transport.switches[sw.ManagementAddr().String()] = true
	}
	dep.Transport = transport
	site, err := dep.AddSite(camp.Site.Spec)
	if err != nil {
		return nil, err
	}
	if err := dep.Finish(); err != nil {
		return nil, err
	}
	// Re-register the site's SNMP Collector behind its interposer; the
	// master resolves collectors through the directory on every query.
	snmpColl := &tracedSNMPCollector{inner: site.SNMP, tr: tr}
	if err := dep.Directory.Register(directory.Advert{
		Name: site.Name, Prefixes: site.Prefixes(), Collector: snmpColl,
	}, 0); err != nil {
		return nil, err
	}
	master := &tracedCollector{inner: site.Master, tr: tr, l: layerMaster}
	cache := qcache.New(master, qcache.Config{TTL: time.Hour, Now: camp.Sim.Now})
	outer := &tracedCollector{inner: cache, tr: tr, l: layerQcache}

	srv := &proto.TCPServer{Collector: outer}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		dep.Stop()
		return nil, err
	}
	cl := &proto.TCPClient{Addr: addr}
	r := &rig{
		tr: tr, n: len(plan.queries), protoMetric: "proto.query_self_us",
		snmpExpected: true, snmpColl: snmpColl, cacheStats: cache.Stats,
	}
	r.stop = func() {
		cl.Close()
		srv.Close()
		dep.Stop()
	}

	queries := make([]collector.Query, len(plan.queries))
	keys := make([]string, len(plan.queries))
	for i := range plan.queries {
		queries[i] = collector.Query{Hosts: plan.queries[i].hosts}
		keys[i] = qcache.Key(queries[i])
	}
	r.before = func(i int) {
		site.SNMP.DropCaches()
		cache.Invalidate(keys[i])
	}
	var got *collector.Result
	r.call = func(i int) error {
		var err error
		got, err = cl.Collect(queries[i])
		return err
	}
	r.check = func(i int) error {
		if got == nil {
			return fmt.Errorf("no reply")
		}
		return plan.queries[i].checkReply(got.Graph)
	}

	// Warm-up: every query of the mix once, so lazily built state above
	// the collector caches (connection, pools) exists before timing.
	for i := range queries {
		r.before(i)
		if err := r.call(i); err != nil {
			r.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := r.check(i); err != nil {
			r.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	reply := got.Graph

	r.probes = func(m map[string]float64) {
		var buf bytes.Buffer
		m["topology.encode_us"] = probe(31, 20, func(int) {
			buf.Reset()
			_ = reply.EncodeText(&buf) // a bytes.Buffer write cannot fail
		})
		m["topology.encode_bytes"] = float64(buf.Len())
		text := append([]byte(nil), buf.Bytes()...)
		m["topology.decode_us"] = probe(31, 20, func(int) {
			_, _ = topology.DecodeText(bytes.NewReader(text)) // the encoder's own output
		})
		transport.mu.Lock()
		req, rsp := append([]byte(nil), transport.req...), append([]byte(nil), transport.rsp...)
		transport.mu.Unlock()
		if len(req) > 0 && len(rsp) > 0 {
			var scratch []byte
			m["snmp.codec_us"] = probe(31, 200, func(int) {
				for _, b := range [2][]byte{req, rsp} {
					if msg, err := snmp.Unmarshal(b); err == nil {
						scratch, _ = msg.AppendMarshal(scratch[:0])
					}
				}
			})
		}
	}
	return r, nil
}
