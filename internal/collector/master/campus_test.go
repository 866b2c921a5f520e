package master_test

import (
	"bytes"
	"math/rand"
	"net/netip"
	"sync"
	"testing"

	"remos/internal/collector"
	"remos/internal/directory"
	"remos/internal/experiments"
	"remos/internal/topology"
)

// keepLast passes queries to its collector and keeps the last result.
type keepLast struct {
	collector.Interface
	mu   sync.Mutex
	last *collector.Result
}

func (k *keepLast) Collect(q collector.Query) (*collector.Result, error) {
	res, err := k.Interface.Collect(q)
	k.mu.Lock()
	k.last = res
	k.mu.Unlock()
	return res, err
}

func text(t *testing.T, g *topology.Graph) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := g.EncodeText(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestLoneSiteResultIsHandedUp: on the one-site campus the master answers
// with the SNMP Collector's result itself, not a copy, and that answer is
// byte for byte what merging the result into an empty graph gives, and
// binds every queried host's address alike.
func TestLoneSiteResultIsHandedUp(t *testing.T) {
	camp, err := experiments.BuildCampus(64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(camp.Dep.Stop)
	site := &keepLast{Interface: camp.Site.SNMP}
	if err := camp.Dep.Directory.Register(directory.Advert{
		Name: camp.Site.Name, Prefixes: camp.Site.Prefixes(), Collector: site,
	}, 0); err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 12; i++ {
		var hosts []netip.Addr
		for _, k := range rnd.Perm(len(camp.Hosts))[:1+rnd.Intn(16)] {
			hosts = append(hosts, camp.Hosts[k].Addr())
		}
		res, err := camp.Site.Master.Collect(collector.Query{Hosts: hosts})
		if err != nil {
			t.Fatal(err)
		}
		if res != site.last {
			t.Fatalf("query %d: the master copied the site's result", i)
		}
		merged := topology.NewGraph()
		merged.Merge(site.last.Graph)
		if got, want := text(t, res.Graph), text(t, merged); !bytes.Equal(got, want) {
			t.Fatalf("query %d: handed-up answer\n%s\nmerged answer\n%s", i, got, want)
		}
		for _, h := range hosts {
			a, b := res.Graph.NodeByAddr(h.String()), merged.NodeByAddr(h.String())
			if a == nil || b == nil || a.ID != b.ID {
				t.Fatalf("query %d: %v binds to %v handed up, %v merged", i, h, a, b)
			}
		}
	}
}
