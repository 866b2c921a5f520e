package snmpcoll

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/netsim"
	"remos/internal/sim"
	"remos/internal/snmp"
	"remos/internal/topology"
)

// A transport hands each response over: once the client has decoded it,
// nobody reads it again, and the in-process agents encode the next one
// into the same buffer. These gates hold a collector whose responses are
// destroyed once their exchange is over to the answers of a twin over
// plain snmp.InProc.

// ScribbleTransport hands out every response as a private copy and fills
// the copy with 0xFF once its exchange is over: when the next exchange
// starts, and when Scribble is called after a collect returns. A reader
// that holds a response past its exchange reads 0xFF where the agent's
// answer was. Exchanges must be serial (Parallelism 1): one that starts
// while another is inside RoundTrip is counted in Overlaps.
type ScribbleTransport struct {
	Inner snmp.Transport

	mu       sync.Mutex
	last     []byte // the response of the exchange in progress
	busy     bool
	overlaps int
	handed   int
}

// RoundTrip implements snmp.Transport.
func (t *ScribbleTransport) RoundTrip(addr string, req []byte) ([]byte, time.Duration, error) {
	t.mu.Lock()
	if t.busy {
		t.overlaps++
	}
	t.busy = true
	t.scribbleLocked()
	t.mu.Unlock()
	resp, rtt, err := t.Inner.RoundTrip(addr, req)
	var own []byte
	if resp != nil {
		own = make([]byte, len(resp))
		copy(own, resp)
	}
	t.mu.Lock()
	t.busy = false
	if own != nil {
		t.last = own
		t.handed++
	}
	t.mu.Unlock()
	return own, rtt, err
}

func (t *ScribbleTransport) scribbleLocked() {
	for i := range t.last {
		t.last[i] = 0xFF
	}
	t.last = nil
}

// Scribble fills the last response handed out with 0xFF.
func (t *ScribbleTransport) Scribble() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.scribbleLocked()
}

// Counts reports how many responses were handed out and how many
// exchanges overlapped another.
func (t *ScribbleTransport) Counts() (handed, overlaps int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.handed, t.overlaps
}

// ScribbledTwins returns two serial twins of c: one whose exchanges run
// through a ScribbleTransport over c's transport, and one over c's
// transport as it is.
func ScribbledTwins(c *Collector) (scribbled, plain *Collector, tr *ScribbleTransport) {
	tr = &ScribbleTransport{Inner: c.cfg.Transport}
	scribbled = c.Twin(func(cfg *Config) { cfg.Parallelism, cfg.Transport = 1, tr })
	plain = c.Twin(func(cfg *Config) { cfg.Parallelism = 1 })
	return scribbled, plain, tr
}

// AssertSameAnswer has the scribbled and the plain twin answer q, destroys
// the last response the scribbled one was handed, and fails the test
// unless both replies encode byte for byte alike and both collectors
// registered the same poll points with the same readings.
func AssertSameAnswer(t testing.TB, scribbled, plain *Collector, tr *ScribbleTransport, q collector.Query) {
	t.Helper()
	got, err := scribbled.Collect(q)
	if err != nil {
		t.Fatalf("scribbled: %v", err)
	}
	tr.Scribble()
	want, err := plain.Collect(q)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	if g, w := replyText(t, scribbled, got.Graph), replyText(t, plain, want.Graph); g != w {
		t.Fatalf("the scribbled collector answers %v with\n%s\nthe plain one with\n%s", q.Hosts, g, w)
	}
	if handed, overlaps := tr.Counts(); handed == 0 || overlaps != 0 {
		t.Fatalf("the scribbling transport handed out %d responses, %d of them during another exchange", handed, overlaps)
	}
}

// replyText is g's ASCII encoding, its canonical discovery with the
// collector's poll points, and every monitored link direction's reading.
func replyText(t testing.TB, c *Collector, g *topology.Graph) string {
	t.Helper()
	var sb strings.Builder
	if err := g.EncodeText(&sb); err != nil {
		t.Fatal(err)
	}
	sb.WriteString(CanonicalDiscovery(c, g))
	for _, l := range g.Links() {
		for _, dir := range [2][2]string{{l.From, l.To}, {l.To, l.From}} {
			bits, ok := c.Utilization(dir[0], dir[1])
			fmt.Fprintf(&sb, "reading %s %s %t %g\n", dir[0], dir[1], ok, bits)
		}
	}
	return sb.String()
}

// TestRandomFabricHandOver is the hand-over gate on random netsim fabrics:
// host sets within one routed component are discovered cold, then read
// again warm after both pollers sampled a flow on the first two hosts'
// path, by a collector whose responses are destroyed after their exchange
// and by its twin over plain InProc.
func TestRandomFabricHandOver(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		s := sim.NewSim()
		fab := netsim.RandomFabric(s, seed)
		t.Run(fab.Shape, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			st := siteOver(t, s, fab.Net, nil)
			defer st.stop()
			scribbled, plain, tr := ScribbledTwins(st.sc)
			defer scribbled.Stop()
			defer plain.Stop()
			first := fab.Hosts[rng.Intn(len(fab.Hosts))]
			var reach []netip.Addr
			for _, h := range fab.Hosts {
				if _, err := fab.Net.Path(first, h); err == nil || h == first {
					reach = append(reach, h.Addr())
				}
			}
			hosts := make([]netip.Addr, 1+rng.Intn(len(reach)))
			for i, k := range rng.Perm(len(reach))[:len(hosts)] {
				hosts[i] = reach[k]
			}
			q := collector.Query{Hosts: hosts}
			AssertSameAnswer(t, scribbled, plain, tr, q) // cold
			if len(hosts) > 1 {
				if _, err := fab.Net.StartFlow(fab.Net.DeviceByIP(hosts[0]), fab.Net.DeviceByIP(hosts[1]), netsim.FlowSpec{Demand: 3e6}); err != nil {
					t.Fatal(err)
				}
			}
			s.RunFor(11 * time.Second) // the poll plane reads through both
			tr.Scribble()
			AssertSameAnswer(t, scribbled, plain, tr, q) // warm
		})
	}
}
