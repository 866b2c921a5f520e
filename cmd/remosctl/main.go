// Command remosctl queries a running remosd (or any Remos Master
// Collector served over the wire protocols) from the command line.
//
// Usage:
//
//	remosctl [-server 127.0.0.1:3567] [-xml http://127.0.0.1:3568]
//	         [-obs http://127.0.0.1:3571] [-timeout 10s] <command> [args]
//
// Commands:
//
//	bw <src> <dst>              available bandwidth between two hosts
//	topo <host> [host...]       virtual topology spanning the hosts
//	flows <src>:<dst> [...]     max-min answer for a set of flows
//	best <client> <srv> [...]   rank candidate servers for the client
//	predict <src> <dst> <model> <k>   RPS forecast over collector history
//	load <host> [horizon]       current and predicted CPU load (needs -hostload)
//	watch <src> <dst> [below <Mbit/s>] [above <Mbit/s>] [change <frac>]
//	                            stream server-pushed bandwidth updates
//	stats [metrics|health|queries|tenants|federation]
//	                            remosd observability plane (needs -obs)
//
// watch subscribes to remosd's continuous-collection plane and prints
// every pushed update. With no predicate it defaults to "change 0.05"
// (any 5% move). -count N exits successfully after N non-baseline
// updates; the -timeout deadline also bounds the whole subscription, so
// scripts can assert "an update arrives within T".
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"time"

	"remos"
)

func main() {
	server := flag.String("server", "127.0.0.1:3567", "ASCII protocol server address")
	xml := flag.String("xml", "", "XML protocol base URL (overrides -server when set)")
	loadSrv := flag.String("hostload", "127.0.0.1:3570", "host load collector address (for the load command)")
	obsURL := flag.String("obs", "http://127.0.0.1:3571", "observability base URL (for the stats command)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-command deadline (0 = none)")
	raw := flag.Bool("raw", false, "topology: skip simplification")
	predictFlows := flag.Bool("predicted", false, "flows: include RPS prediction")
	count := flag.Int("count", 0, "watch: exit after this many non-baseline updates (0 = stream until interrupted)")
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "remosctl: %v\n", err)
		// A shed request carries the admission layer's backoff hint;
		// surface it so scripts (and humans) retry at the right time.
		if errors.Is(err, remos.ErrOverloaded) {
			if d, ok := remos.RetryAfter(err); ok {
				fmt.Fprintf(os.Stderr, "remosctl: server overloaded; retry in %v\n", d)
			}
		}
		os.Exit(1)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	args := flag.Args()
	if args[0] == "stats" {
		if err := stats(ctx, *obsURL, args[1:]); err != nil {
			die(err)
		}
		return
	}

	var opts []remos.Option
	target := "tcp://" + *server
	if *xml != "" {
		target = *xml
	}
	if *loadSrv != "" {
		opts = append(opts, remos.WithHostLoad("tcp://"+*loadSrv))
	}
	m, err := remos.Dial(target, opts...)
	if err != nil {
		die(err)
	}

	parseAddr := func(s string) netip.Addr {
		a, err := netip.ParseAddr(s)
		if err != nil {
			die(fmt.Errorf("bad address %q: %v", s, err))
		}
		return a
	}

	switch args[0] {
	case "bw":
		if len(args) != 3 {
			die(errors.New("bw needs <src> <dst>"))
		}
		bw, err := m.AvailableBandwidthContext(ctx, parseAddr(args[1]), parseAddr(args[2]))
		if err != nil {
			die(err)
		}
		fmt.Printf("%.3f Mbit/s\n", bw/1e6)

	case "topo":
		if len(args) < 2 {
			die(errors.New("topo needs at least one host"))
		}
		var hosts []netip.Addr
		for _, a := range args[1:] {
			hosts = append(hosts, parseAddr(a))
		}
		g, err := m.GetTopologyContext(ctx, hosts, remos.TopologyOptions{Raw: *raw})
		if err != nil {
			die(err)
		}
		if err := g.EncodeText(os.Stdout); err != nil {
			die(err)
		}

	case "flows":
		if len(args) < 2 {
			die(errors.New("flows needs at least one <src>:<dst>"))
		}
		var flows []remos.Flow
		for _, spec := range args[1:] {
			parts := strings.Split(spec, ":")
			if len(parts) != 2 {
				die(fmt.Errorf("bad flow spec %q (want src:dst)", spec))
			}
			flows = append(flows, remos.Flow{Src: parseAddr(parts[0]), Dst: parseAddr(parts[1])})
		}
		infos, err := m.GetFlowsContext(ctx, flows, remos.FlowOptions{Predict: *predictFlows})
		if err != nil {
			die(err)
		}
		for _, inf := range infos {
			fmt.Printf("%s -> %s: %.3f Mbit/s, latency %v", inf.Flow.Src, inf.Flow.Dst,
				inf.Available/1e6, inf.Latency)
			if inf.Jitter > 0 {
				fmt.Printf(", jitter %v", inf.Jitter)
			}
			if *predictFlows {
				fmt.Printf(", predicted %.3f Mbit/s", inf.Predicted/1e6)
			}
			fmt.Println()
		}

	case "best":
		if len(args) < 3 {
			die(errors.New("best needs <client> <server> [server...]"))
		}
		client := parseAddr(args[1])
		var servers []netip.Addr
		for _, a := range args[2:] {
			servers = append(servers, parseAddr(a))
		}
		ranks, err := m.BestServerContext(ctx, client, servers, remos.FlowOptions{})
		if err != nil {
			die(err)
		}
		for i, r := range ranks {
			if r.Err != nil {
				fmt.Printf("%d. %s  (unreachable: %v)\n", i+1, r.Server, r.Err)
				continue
			}
			fmt.Printf("%d. %s  %.3f Mbit/s\n", i+1, r.Server, r.Bandwidth/1e6)
		}

	case "predict":
		if len(args) != 5 {
			die(errors.New("predict needs <src> <dst> <model> <horizon>"))
		}
		k, err := strconv.Atoi(args[4])
		if err != nil || k < 1 {
			die(fmt.Errorf("bad horizon %q", args[4]))
		}
		p, err := m.PredictSeriesContext(ctx, parseAddr(args[1]), parseAddr(args[2]), args[3], k)
		if err != nil {
			die(err)
		}
		for h := range p.Values {
			fmt.Printf("t+%d: %.3f Mbit/s (errvar %.3g)\n", h+1, p.Values[h]/1e6, p.ErrVar[h])
		}

	case "load":
		if len(args) != 2 && len(args) != 3 {
			die(errors.New("load needs <host> [horizon]"))
		}
		horizon := 5
		if len(args) == 3 {
			h, err := strconv.Atoi(args[2])
			if err != nil || h < 1 {
				die(fmt.Errorf("bad horizon %q", args[2]))
			}
			horizon = h
		}
		info, err := m.HostLoadContext(ctx, parseAddr(args[1]), horizon)
		if err != nil {
			die(err)
		}
		fmt.Printf("current load: %.2f\n", info.Current)
		for i, v := range info.Forecast.Values {
			ev := 0.0
			if i < len(info.Forecast.ErrVar) {
				ev = info.Forecast.ErrVar[i]
			}
			fmt.Printf("t+%d: %.2f (errvar %.3g)\n", i+1, v, ev)
		}

	case "watch":
		if len(args) < 3 {
			die(errors.New("watch needs <src> <dst> [below|above|change <val>]..."))
		}
		src, dst := parseAddr(args[1]), parseAddr(args[2])
		var wopts []remos.WatchOption
		for rest := args[3:]; len(rest) > 0; rest = rest[2:] {
			if len(rest) < 2 {
				die(fmt.Errorf("watch predicate %q needs a value", rest[0]))
			}
			v, err := strconv.ParseFloat(rest[1], 64)
			if err != nil {
				die(fmt.Errorf("bad predicate value %q", rest[1]))
			}
			switch rest[0] {
			case "below":
				wopts = append(wopts, remos.WatchBelow(v*1e6))
			case "above":
				wopts = append(wopts, remos.WatchAbove(v*1e6))
			case "change":
				wopts = append(wopts, remos.WatchOnChange(v))
			default:
				die(fmt.Errorf("unknown predicate %q (want below, above or change)", rest[0]))
			}
		}
		if len(wopts) == 0 {
			wopts = append(wopts, remos.WatchOnChange(0.05))
		}
		ch, err := m.Watch(ctx, remos.WatchQuery{Src: src, Dst: dst}, wopts...)
		if err != nil {
			die(err)
		}
		seen := 0
		for u := range ch {
			if u.Err != nil {
				die(fmt.Errorf("watch ended: %w", u.Err))
			}
			fmt.Printf("%s  %s -> %s  %.3f Mbit/s (prev %.3f)  %s\n",
				u.At.Format(time.RFC3339), u.Src, u.Dst, u.Avail/1e6, u.Prev/1e6, u.Reason)
			if u.Reason != "init" {
				seen++
			}
			if *count > 0 && seen >= *count {
				return
			}
		}

	default:
		die(fmt.Errorf("unknown command %q", args[0]))
	}
}

// stats renders remosd's observability plane. With no argument it shows
// health, the serving metrics, and a summary of recent queries; an
// explicit subcommand (metrics|health|queries) dumps that endpoint.
func stats(ctx context.Context, base string, args []string) error {
	base = strings.TrimSuffix(base, "/")
	fetch := func(path string) ([]byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		// /healthz answers 503 when a component is down; the body is
		// still the report the caller wants.
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
			return nil, fmt.Errorf("GET %s%s: %s", base, path, resp.Status)
		}
		return body, nil
	}
	which := ""
	if len(args) > 0 {
		which = args[0]
	}
	switch which {
	case "metrics":
		body, err := fetch("/metrics")
		if err != nil {
			return err
		}
		os.Stdout.Write(body)
		return nil
	case "health":
		body, err := fetch("/healthz")
		if err != nil {
			return err
		}
		os.Stdout.Write(body)
		return nil
	case "queries":
		body, err := fetch("/debug/queries")
		if err != nil {
			return err
		}
		os.Stdout.Write(body)
		return nil
	case "tenants":
		body, err := fetch("/debug/tenants")
		if err != nil {
			return err
		}
		return printTenants(body)
	case "federation":
		body, err := fetch("/debug/federation")
		if err != nil {
			return err
		}
		return printFederation(body)
	case "":
	default:
		return fmt.Errorf("unknown stats subcommand %q (want metrics, health, queries, tenants or federation)", which)
	}

	// Summary view.
	body, err := fetch("/healthz")
	if err != nil {
		return err
	}
	var health struct {
		Healthy    bool `json:"healthy"`
		Components []struct {
			Component   string        `json:"component"`
			Healthy     bool          `json:"healthy"`
			Detail      string        `json:"detail"`
			LastPollAge time.Duration `json:"last_poll_age_ns"`
		} `json:"components"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		return fmt.Errorf("parsing /healthz: %w", err)
	}
	status := "healthy"
	if !health.Healthy {
		status = "DEGRADED"
	}
	fmt.Printf("service: %s\n", status)
	for _, c := range health.Components {
		mark := "ok"
		if !c.Healthy {
			mark = "DOWN"
		}
		fmt.Printf("  %-20s %-4s", c.Component, mark)
		if c.LastPollAge > 0 {
			fmt.Printf("  last poll %v ago", c.LastPollAge.Round(time.Millisecond))
		}
		if c.Detail != "" {
			fmt.Printf("  (%s)", c.Detail)
		}
		fmt.Println()
	}

	body, err = fetch("/metrics")
	if err != nil {
		return err
	}
	fmt.Println("\nkey metrics:")
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "remos_requests_total") ||
			strings.HasPrefix(line, "remos_request_errors_total") ||
			strings.HasPrefix(line, "remos_snapshot_") ||
			strings.HasPrefix(line, "remos_sched_") ||
			strings.HasPrefix(line, "remos_watch_") ||
			strings.HasPrefix(line, "remos_admission_") ||
			strings.HasPrefix(line, "remos_snmp_exchanges_total") ||
			strings.HasPrefix(line, "remos_snmp_timeouts_total") ||
			strings.HasPrefix(line, "remos_master_queries_total") ||
			strings.HasPrefix(line, "remos_federation_") {
			fmt.Printf("  %s\n", line)
		}
	}

	// Per-tenant admission state; daemons without the admission layer
	// (or older ones without the endpoint) simply omit the section.
	if body, err := fetch("/debug/tenants"); err == nil {
		fmt.Println("\ntenants:")
		if err := printTenants(body); err != nil {
			return err
		}
	}

	// The federation mesh; only federated daemons serve the endpoint
	// with domains in it.
	if body, err := fetch("/debug/federation"); err == nil &&
		strings.Contains(string(body), `"domain"`) {
		fmt.Println()
		if err := printFederation(body); err != nil {
			return err
		}
	}

	body, err = fetch("/debug/queries")
	if err != nil {
		return err
	}
	var queries []struct {
		Kind  string        `json:"kind"`
		Attrs string        `json:"attrs"`
		Dur   time.Duration `json:"dur_ns"`
		Slow  bool          `json:"slow"`
		Err   string        `json:"err"`
	}
	if err := json.Unmarshal(body, &queries); err != nil {
		return fmt.Errorf("parsing /debug/queries: %w", err)
	}
	fmt.Printf("\nrecent queries (%d):\n", len(queries))
	for i, q := range queries {
		if i >= 10 {
			fmt.Printf("  ... (%d more; remosctl stats queries for full traces)\n", len(queries)-i)
			break
		}
		flags := ""
		if q.Slow {
			flags = "  SLOW"
		}
		if q.Err != "" {
			flags += "  err=" + q.Err
		}
		fmt.Printf("  %-10s %-30s %v%s\n", q.Kind, q.Attrs, q.Dur.Round(time.Microsecond), flags)
	}
	return nil
}

// printFederation renders /debug/federation: every advertised domain
// with its masters in failover order (lease ages against the daemon's
// clock), the router's cached epoch per domain, and the mesh counters.
func printFederation(body []byte) error {
	var snap struct {
		Domains []struct {
			Domain  string `json:"domain"`
			Adverts []struct {
				Name     string  `json:"name"`
				Endpoint string  `json:"endpoint"`
				Local    bool    `json:"local"`
				Priority int     `json:"priority"`
				Epoch    uint64  `json:"epoch"`
				LeaseAge float64 `json:"lease_age_seconds"`
				LeaseTTL float64 `json:"lease_ttl_seconds"`
			} `json:"adverts"`
			CachedFrom  string `json:"cached_from"`
			CachedEpoch uint64 `json:"cached_epoch"`
			Stale       bool   `json:"stale"`
		} `json:"domains"`
		FlowQueries int64 `json:"flow_queries"`
		Collects    int64 `json:"collects"`
		Fetches     int64 `json:"domain_fetches"`
		CacheHits   int64 `json:"cache_hits"`
		StaleServes int64 `json:"stale_serves"`
		Failovers   int64 `json:"failovers"`
		Stitches    int64 `json:"stitches"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("parsing /debug/federation: %w", err)
	}
	if len(snap.Domains) == 0 {
		fmt.Println("no federated domains advertised (daemon not in federated mode, or no leases yet)")
		return nil
	}
	fmt.Printf("federated domains (%d):\n", len(snap.Domains))
	for _, d := range snap.Domains {
		cache := "not cached"
		switch {
		case d.Stale:
			cache = fmt.Sprintf("cached from %s@%d (STALE: all masters unreachable)", d.CachedFrom, d.CachedEpoch)
		case d.CachedFrom != "":
			cache = fmt.Sprintf("cached from %s@%d", d.CachedFrom, d.CachedEpoch)
		}
		fmt.Printf("  %-8s %s\n", d.Domain, cache)
		for _, a := range d.Adverts {
			loc := a.Endpoint
			if a.Local {
				loc = "local"
				if a.Endpoint != "" {
					loc = "local, " + a.Endpoint
				}
			}
			fmt.Printf("    prio %d  %-12s epoch %-6d lease renewed %.1fs ago, %.1fs left  (%s)\n",
				a.Priority, a.Name, a.Epoch, a.LeaseAge, a.LeaseTTL, loc)
		}
	}
	fmt.Printf("router: %d flow queries, %d collects, %d fetches (%d cache hits), %d failovers, %d stale serves, %d stitches\n",
		snap.FlowQueries, snap.Collects, snap.Fetches, snap.CacheHits,
		snap.Failovers, snap.StaleServes, snap.Stitches)
	return nil
}

// printTenants renders /debug/tenants: one line per tenant with its
// bucket level, live usage, and lifetime admitted/queued/shed counters.
func printTenants(body []byte) error {
	var report struct {
		Tenants []struct {
			Tenant        string  `json:"tenant"`
			Tier          string  `json:"tier"`
			Rate          float64 `json:"rate"`
			Burst         float64 `json:"burst"`
			Tokens        float64 `json:"tokens"`
			InFlight      int     `json:"in_flight"`
			MaxConcurrent int     `json:"max_concurrent"`
			Watches       int     `json:"watches"`
			MaxWatches    int     `json:"max_watches"`
			Queued        int     `json:"queued"`
			Admitted      int64   `json:"admitted"`
			QueuedTotal   int64   `json:"queued_total"`
			Shed          int64   `json:"shed"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(body, &report); err != nil {
		return fmt.Errorf("parsing /debug/tenants: %w", err)
	}
	if len(report.Tenants) == 0 {
		fmt.Println("  (no tenants seen yet)")
		return nil
	}
	lim := func(n int) string {
		if n <= 0 {
			return "-"
		}
		return strconv.Itoa(n)
	}
	for _, t := range report.Tenants {
		bucket := "unmetered"
		if t.Rate > 0 {
			bucket = fmt.Sprintf("%.1f/%.0f tokens (rate %g/s)", t.Tokens, t.Burst, t.Rate)
		}
		fmt.Printf("  %-16s %-11s %-28s inflight %d/%s  watches %d/%s  queued %d  admitted %d  queued-total %d  shed %d\n",
			t.Tenant, t.Tier, bucket,
			t.InFlight, lim(t.MaxConcurrent), t.Watches, lim(t.MaxWatches),
			t.Queued, t.Admitted, t.QueuedTotal, t.Shed)
	}
	return nil
}
