package remos_test

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/netip"
	"reflect"
	"syscall"
	"testing"
	"time"

	"remos"
	"remos/remosd"
)

// reserveAddr picks a loopback address that is free now, for a listener
// whose address its peer must know before it starts.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startFederatedPair starts two remosd daemons splitting the twosite
// scenario into domains d0 and d1, each peering the other's directory,
// and closes both when the test ends. Another test can take a reserved
// directory port before its daemon binds it: a pair whose Start fails
// with EADDRINUSE is closed and started again on fresh addresses, a
// bounded number of times.
func startFederatedPair(t *testing.T) (*remosd.Daemon, *remosd.Daemon) {
	t.Helper()
	for attempt := 1; ; attempt++ {
		dirs := [2]string{reserveAddr(t), reserveAddr(t)}
		var pair [2]*remosd.Daemon
		var err error
		for domain := range pair {
			cfg := remosd.DefaultConfig()
			cfg.Domains, cfg.Domain, cfg.FedPeers = 2, domain, []string{dirs[1-domain]}
			cfg.FedRefresh, cfg.FedLeaseTTL = 200*time.Millisecond, 2*time.Second
			cfg.ListenASCII, cfg.ListenHTTP, cfg.ListenObs = "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"
			cfg.ListenDirectory, cfg.ListenHostLoad = dirs[domain], ""
			if pair[domain], err = cfg.Start(); err != nil {
				break
			}
		}
		if err == nil {
			t.Cleanup(func() { pair[0].Close(); pair[1].Close() })
			return pair[0], pair[1]
		}
		if pair[0] != nil {
			pair[0].Close()
		}
		if !errors.Is(err, syscall.EADDRINUSE) || attempt == 5 {
			t.Fatalf("start a federated pair (attempt %d): %v", attempt, err)
		}
	}
}

// TestFederatedDaemonsE2E runs the federated quickstart through the
// public API: two remosd daemons split the twosite scenario into two
// administrative domains, replicate their directory leases to each
// other, and a client dialing either daemon gets the same exact answer
// for a cross-domain flow — the stitched-graph max-min over the whole
// fabric, reached through per-domain masters.
func TestFederatedDaemonsE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("federated mesh spins real daemons")
	}
	da, db := startFederatedPair(t)
	if da.FedDomain != "d0" || db.FedDomain != "d1" {
		t.Fatalf("served domains = %q, %q; want d0, d1", da.FedDomain, db.FedDomain)
	}

	hostAddr := func(d *remosd.Daemon, name string) netip.Addr {
		for _, h := range d.Hosts {
			if h.Name == name {
				return h.Addr
			}
		}
		t.Fatalf("daemon has no host %q", name)
		return netip.Addr{}
	}
	// app1 sits in domain d0 (router rA's side), srv in d1 (rB's side);
	// both daemons expose the same host list because the fabric is the
	// same deterministic scenario on each.
	app1, app2, srv := hostAddr(da, "app1"), hostAddr(da, "app2"), hostAddr(da, "srv")
	if a2 := hostAddr(db, "app1"); a2 != app1 {
		t.Fatalf("fabrics disagree: app1 = %v on A, %v on B", app1, a2)
	}

	ma, err := remos.Dial("tcp://" + da.ASCIIAddr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// The cross-domain answer needs d1's lease to replicate into A's
	// directory first; until then the query fails with a typed error.
	cross := []remos.Flow{{Src: app1, Dst: srv}}
	var infos []remos.FlowInfo
	for {
		infos, err = ma.GetFlowsContext(ctx, cross, remos.FlowOptions{})
		if err == nil {
			break
		}
		if !errors.Is(err, remos.ErrUnknownHost) && !errors.Is(err, remos.ErrCollectorUnavailable) {
			t.Fatalf("warmup error is not typed: %v", err)
		}
		select {
		case <-ctx.Done():
			t.Fatalf("mesh never converged: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
	}
	// Single flow over the 10 Mbit/s WAN hop, no background traffic in
	// federated mode: the max-min answer is the WAN capacity exactly.
	if len(infos) != 1 || infos[0].Available != 10e6 {
		t.Fatalf("cross-domain flow = %+v; want exactly 10e6 available", infos)
	}
	if len(infos[0].Path) == 0 {
		t.Fatalf("cross-domain flow carries no path")
	}

	// QUERY reads the stitched graph FLOWS reads: the unsimplified
	// topology for the pair holds every hop and link of the FLOWS path.
	g, err := ma.GetTopologyContext(ctx, []netip.Addr{app1, srv}, remos.TopologyOptions{Raw: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, hop := range infos[0].Path {
		if g.Node(hop) == nil || (i > 0 && g.FindLink(infos[0].Path[i-1], hop) == nil) {
			t.Fatalf("topology for %v-%v lacks hop %s of the FLOWS path %v", app1, srv, hop, infos[0].Path)
		}
	}

	// An intra-domain flow answers through the same stitched graph.
	local, err := ma.GetFlowsContext(ctx, []remos.Flow{{Src: app1, Dst: app2}}, remos.FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(local) != 1 || local[0].Available != 100e6 {
		t.Fatalf("intra-domain flow = %+v; want exactly 100e6 available", local)
	}

	// Dialing the other daemon gives the identical answer: both stitch
	// the same serving graphs at the same border links.
	mb, err := remos.Dial("tcp://" + db.ASCIIAddr)
	if err != nil {
		t.Fatal(err)
	}
	var infosB []remos.FlowInfo
	for {
		infosB, err = mb.GetFlowsContext(ctx, cross, remos.FlowOptions{})
		if err == nil {
			break
		}
		if !errors.Is(err, remos.ErrUnknownHost) && !errors.Is(err, remos.ErrCollectorUnavailable) {
			t.Fatalf("warmup error is not typed: %v", err)
		}
		select {
		case <-ctx.Done():
			t.Fatalf("daemon B never converged: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
	}
	if !reflect.DeepEqual(infos, infosB) {
		t.Fatalf("daemons disagree on the cross-domain answer:\nA: %+v\nB: %+v", infos, infosB)
	}

	// A host nobody advertises fails with the unknown-host class, not
	// collector-unavailable: "no route to a domain" and "domain master
	// down" stay distinguishable through the public API — over FLOWS,
	// and over QUERY, where Router.Collect refuses the host.
	stray := netip.MustParseAddr("203.0.113.7")
	_, err = ma.GetFlowsContext(ctx, []remos.Flow{{Src: stray, Dst: srv}}, remos.FlowOptions{})
	if !errors.Is(err, remos.ErrUnknownHost) {
		t.Fatalf("unadvertised host FLOWS error = %v; want ErrUnknownHost", err)
	}
	_, err = ma.GetTopologyContext(ctx, []netip.Addr{stray, srv}, remos.TopologyOptions{})
	if !errors.Is(err, remos.ErrUnknownHost) {
		t.Fatalf("unadvertised host QUERY error = %v; want ErrUnknownHost", err)
	}

	// The observability plane reports the mesh: both domains advertised,
	// each with one advert, lease ages bounded by the TTL.
	resp, err := http.Get("http://" + da.ObsAddr + "/debug/federation")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Domains []struct {
			Domain  string `json:"domain"`
			Adverts []struct {
				Name     string  `json:"name"`
				Local    bool    `json:"local"`
				LeaseTTL float64 `json:"lease_ttl_seconds"`
			} `json:"adverts"`
			CachedFrom string `json:"cached_from"`
			Stale      bool   `json:"stale"`
		} `json:"domains"`
		FlowQueries int64 `json:"flow_queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Domains) != 2 {
		t.Fatalf("federation snapshot has %d domains; want 2: %+v", len(snap.Domains), snap)
	}
	for _, dom := range snap.Domains {
		if len(dom.Adverts) != 1 {
			t.Fatalf("domain %s has %d adverts; want 1", dom.Domain, len(dom.Adverts))
		}
		if dom.Stale {
			t.Fatalf("domain %s is marked stale with both masters alive", dom.Domain)
		}
		// Daemon A holds its own domain's advert locally; the peer's
		// came over replication, endpoint-only.
		wantLocal := dom.Domain == "d0"
		if dom.Adverts[0].Local != wantLocal {
			t.Fatalf("domain %s advert local = %v; want %v", dom.Domain, dom.Adverts[0].Local, wantLocal)
		}
		if ttl := dom.Adverts[0].LeaseTTL; ttl <= 0 || ttl > 2.0 {
			t.Fatalf("domain %s lease TTL %v outside (0, 2s]", dom.Domain, ttl)
		}
		if dom.CachedFrom == "" {
			t.Fatalf("domain %s has no cached serving graph after queries", dom.Domain)
		}
	}
	if snap.FlowQueries == 0 {
		t.Fatalf("router recorded no flow queries")
	}
}
