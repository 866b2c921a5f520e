package remosd_test

import (
	"bytes"
	"context"
	"net/netip"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"remos"
	"remos/remosd"
)

// TestMetricFamiliesPinned pins the metric families a started daemon
// registers in both modes: the # HELP and # TYPE lines of a single-master
// daemon with a tenant and host load on, and of one daemon of a federated
// pair, each after one QUERY and one FLOWS over each wire protocol.
// remos_runtime_open_fds exists only where /proc/self/fd is readable, so
// it is left out on both sides.
func TestMetricFamiliesPinned(t *testing.T) {
	single := testConfig()
	single.ListenHostLoad = "127.0.0.1:0"
	single.Tenants = map[string]remosd.Tenant{"app": {Key: "sekrit"}}
	fed := testConfig()
	fed.FedRefresh, fed.FedLeaseTTL = 100*time.Millisecond, 2*time.Second
	pair := remosd.StartFederatedPair(t, fed)
	d, err := single.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var got []string
	for _, side := range []struct {
		mode string
		d    *remosd.Daemon
	}{{"single-master", d}, {"federated", pair[0]}} {
		// app1 and app2 share a switch: the single master's first site,
		// and federated domain d0.
		hosts := []netip.Addr{side.d.Hosts[0].Addr, side.d.Hosts[1].Addr}
		for _, target := range []string{"tcp://" + side.d.ASCIIAddr, "http://" + side.d.HTTPAddr} {
			conn, err := remos.Dial(target, remos.WithTenant("app", "sekrit"))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// A federated daemon answers for a domain once the domain's
			// lease is in its directory replica; until then it fails typed.
			for {
				_, err = conn.GetTopologyContext(ctx, hosts, remos.TopologyOptions{})
				if err == nil {
					_, err = conn.GetFlowsContext(ctx, []remos.Flow{{Src: hosts[0], Dst: hosts[1]}}, remos.FlowOptions{})
				}
				if err == nil {
					break
				}
				if ctx.Err() != nil {
					t.Fatalf("%s %s: %v", side.mode, target, err)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
		var b bytes.Buffer
		if err := side.d.Metrics.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if (strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ")) &&
				!strings.HasPrefix(line[len("# HELP "):], "remos_runtime_open_fds ") {
				got = append(got, side.mode+": "+line)
			}
		}
	}
	slices.Sort(got)

	const golden = "testdata/metric_families.txt"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if text := strings.Join(got, "\n") + "\n"; text != string(want) {
		t.Fatalf("the metric families differ from %s; if the change is meant, paste these lines into it:\n%s", golden, text)
	}
}
