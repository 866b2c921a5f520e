package snmpcoll_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/collector/snmpcoll"
	"remos/internal/experiments"
	"remos/internal/netsim"
	"remos/internal/topology"
)

// A collector reuses the working state of its finished queries. These
// tests hold a reused collector's answers to those of fresh collectors and
// to the emulator, and pin what a cold query allocates.

// encodeText renders a graph as the ASCII protocol ships it.
func encodeText(t testing.TB, g *topology.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.EncodeText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// freshAnswer is the reply a collector with nothing to reuse gives q.
func freshAnswer(t testing.TB, camp *experiments.Campus, q collector.Query) []byte {
	t.Helper()
	res, err := campusTwin(t, camp, nil).Collect(q)
	if err != nil {
		t.Fatal(err)
	}
	return encodeText(t, res.Graph)
}

// checkGatewayPaths holds the reply's path from every queried host to its
// gateway router to the emulator's forwarding path between them. Graph
// nodes name devices as the collectors name them: hosts by address,
// routers by sysName, switches by management address.
func checkGatewayPaths(t testing.TB, camp *experiments.Campus, g *topology.Graph, hosts []netip.Addr) {
	t.Helper()
	nodeID := func(d *netsim.Device) string {
		switch d.Kind {
		case netsim.Router:
			return d.Name
		case netsim.Switch:
			return d.ManagementAddr().String()
		}
		return d.Addr().String()
	}
	for _, h := range hosts {
		host := camp.Net.DeviceByIP(h)
		gw := camp.Net.DeviceByIP(host.Gateway)
		devs, err := camp.Net.Path(host, gw)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, len(devs))
		for i, d := range devs {
			want[i] = nodeID(d)
		}
		got, err := g.Path(h.String(), gw.Name)
		if err != nil {
			t.Fatalf("reply has no path from %v to its gateway %s: %v", h, gw.Name, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("reply routes %v to its gateway through %v, the emulator through %v", h, got, want)
		}
	}
}

// TestReusedColdBuildsAnswerLikeFresh: one collector answers 24 seeded
// 32-host queries, cold and warm, back to back under one bridge database
// generation, across a forced re-walk of the bridges, and across a queried
// host's move, which the query meets after building on the stale location.
// Every reply encodes byte for byte as the same query's on a fresh
// collector, and routes every queried host to its gateway as the emulator
// does. State a finished query left behind — link numbers kept under the
// bridge generation, joins made — would show here as a link missing or
// added, and so would state the query that met the move kept from the
// graph it dropped; a poll point it kept would show as a monitor on the
// port the host left.
func TestReusedColdBuildsAnswerLikeFresh(t *testing.T) {
	camp := buildCampus(t, 256)
	c := campusTwin(t, camp, nil)
	for seed := int64(1); seed <= 24; seed++ {
		q := collector.Query{Hosts: pick(rand.New(rand.NewSource(seed)), camp, 32)}
		var vacated string
		switch {
		case seed == 13:
			// A new bridge database generation, numbering its links anew.
			if err := camp.Site.Bridge.SearchStations(nil); err != nil {
				t.Fatal(err)
			}
		case seed%3 == 0:
			// Warm: the routers and MACs the last queries learned are
			// reused along with their build.
		case seed == 17:
			c.DropCaches()
			sw, port := moveHost(t, camp, q.Hosts[5], 2)
			vacated = fmt.Sprintf("monitor %s if%d\n", sw, port)
		default:
			c.DropCaches()
		}
		gen := camp.Site.Bridge.Generation()
		res, err := c.Collect(q)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rewalked := camp.Site.Bridge.Generation() != gen; rewalked != (vacated != "") {
			t.Fatalf("seed %d: the query re-walked the bridges: %t", seed, rewalked)
		}
		if got, want := encodeText(t, res.Graph), freshAnswer(t, camp, q); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: the reused collector answers\n%s\na fresh one\n%s", seed, got, want)
		}
		if vacated != "" && strings.Contains(snmpcoll.CanonicalDiscovery(c, res.Graph), vacated) {
			t.Fatalf("seed %d: the query that met the move monitors the port its host left: %s", seed, vacated)
		}
		checkGatewayPaths(t, camp, res.Graph, q.Hosts)
	}
}

// TestReusedColdBuildsAnswerLikeFreshConcurrently runs the queries of
// TestReusedColdBuildsAnswerLikeFresh on one collector from four
// goroutines at once, so builds and request scratch pass between
// concurrent queries through the pools (the race detector watches the
// hand-over under make race-hot).
func TestReusedColdBuildsAnswerLikeFreshConcurrently(t *testing.T) {
	camp := buildCampus(t, 256)
	const workers, each = 4, 6
	queries := make([]collector.Query, workers*each)
	want := make([][]byte, len(queries))
	for i := range queries {
		queries[i] = collector.Query{Hosts: pick(rand.New(rand.NewSource(int64(i+1))), camp, 32)}
		want[i] = freshAnswer(t, camp, queries[i])
	}
	c := campusTwin(t, camp, nil)
	got := make([][]byte, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				res, err := c.Collect(queries[i])
				if errs[i] = err; err == nil {
					var buf bytes.Buffer
					errs[i] = res.Graph.EncodeText(&buf)
					got[i] = buf.Bytes()
				}
			}
		}()
	}
	wg.Wait()
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("query %d: the shared collector answers\n%s\na fresh one\n%s", i, got[i], want[i])
		}
	}
}

// TestCampusHandOver is the hand-over gate on the cold campus mix: twelve
// seeded 32-host queries, each from dropped caches, then a poll-plane read
// and the last query again warm, asked of a serial collector whose SNMP
// responses are destroyed once their exchange is over
// (snmpcoll.ScribbleTransport) and of its twin over plain InProc. The
// replies, poll points and readings must be byte-identical: a reader that
// kept a response past its decode would read 0xFF.
func TestCampusHandOver(t *testing.T) {
	camp := buildCampus(t, 256)
	scribbled, plain, tr := snmpcoll.ScribbledTwins(camp.Site.SNMP)
	t.Cleanup(scribbled.Stop)
	t.Cleanup(plain.Stop)
	query := func(seed int64) collector.Query {
		return collector.Query{Hosts: pick(rand.New(rand.NewSource(seed)), camp, 32)}
	}
	for seed := int64(1); seed <= 12; seed++ {
		scribbled.DropCaches()
		plain.DropCaches()
		snmpcoll.AssertSameAnswer(t, scribbled, plain, tr, query(seed))
	}
	camp.Sim.RunFor(11 * time.Second) // the poll plane reads through both
	tr.Scribble()
	snmpcoll.AssertSameAnswer(t, scribbled, plain, tr, query(12))
}

// TestDroppedCachesAnswerLikeAFreshCollector is the cross-path gate on
// DropCaches, which clears the collector's tables rather than making new
// ones: a collector that has answered other queries, its caches dropped
// before each of twenty seeded 32-host queries, holds no router view, ARP
// entry or monitor, and answers each query with the bytes and the
// exchange count of a collector built for it. A table left holding
// entries would answer from them and skip the exchanges that learn them.
func TestDroppedCachesAnswerLikeAFreshCollector(t *testing.T) {
	camp := buildCampus(t, 256)
	query := func(seed int64) collector.Query {
		return collector.Query{Hosts: pick(rand.New(rand.NewSource(seed)), camp, 32)}
	}
	c := campusTwin(t, camp, nil)
	for seed := int64(101); seed <= 104; seed++ {
		if _, err := c.Collect(query(seed)); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		c.DropCaches()
		if routers, arp, monitors := c.Cached(); routers+arp+monitors != 0 {
			t.Fatalf("seed %d: the dropped collector holds %d router views, %d ARP entries and %d monitors",
				seed, routers, arp, monitors)
		}
		res, stats, err := c.CollectWithStats(query(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fresh := campusTwin(t, camp, nil)
		want, wantStats, err := fresh.CollectWithStats(query(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got, want := campusReply(t, c, res), campusReply(t, fresh, want); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: the dropped collector answers\n%s\na fresh one\n%s", seed, got, want)
		}
		if stats.Requests != wantStats.Requests {
			t.Fatalf("seed %d: the dropped collector makes %d exchanges, a fresh one %d",
				seed, stats.Requests, wantStats.Requests)
		}
	}
}

// The allocation budget of one cold 32-host query on the 256-host campus
// (Parallelism 1): its answer graph and the cache entries it creates
// (router views, ARP entries, poll points), 5 % over what it measures with
// the pools filled at the measured GOMAXPROCS and no collection running
// (18.2 allocations, 20.4 KB, every run). The emulated agents allocate
// nothing to answer it: each response comes from the datagram pool and
// the client gives it back once decoded. Before that, each of the ~27
// responses was a fresh datagram, and the query read 45.5 allocations and
// 30.3 KB (budget 48 and 31,800 B). Before the answer graph built its
// lookup tables only when first read, it read 57.5 allocations and 37.4 KB
// (budget 60 and 39,300 B). Before each pooled build kept its client and fan-out
// funcs, each router view held its tables inside it, and DropCaches
// cleared the collector's tables instead of making new ones, it read 94.5
// allocations and 47.3–47.4 KB. Once the query built its graph by number
// and assembled its answer once, and before the pools were held steady, it
// read 94.7 or 97.3–98.0 allocations and 47.4–48.3 KB, the upper mode when
// the pools were dropped mid-test. Before that, the query allocated
// 96.7–99.6 times and 53.7–54.4 KB; before every address was named once in
// the collector's life and each router view was learned into three flat
// slices, 196 times and ~57.7 KB; before each switch holding queried
// stations was asked once, 225 times and ~58.8 KB; and before its working
// state came from the collector's pool, 410 times and ~114.9 KB. Budgets
// only get tighter.
const (
	coldCollectAllocs = 20
	coldCollectBytes  = 21450
)

func TestColdCollectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	camp := buildCampus(t, 256)
	c := campusTwin(t, camp, func(cfg *snmpcoll.Config) { cfg.Parallelism = 1 })
	// The pools are filled under the GOMAXPROCS the queries are measured
	// at: a change of it drops what a sync.Pool holds outside its victim
	// cache. A collection would shed the pools too, so none runs from the
	// first query to the last; either would add remaking the pooled builds
	// (each with its client and fan-out funcs) and request scratch to the
	// count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	queries := make([]collector.Query, 16)
	for i := range queries {
		queries[i] = collector.Query{Hosts: pick(rand.New(rand.NewSource(int64(i+1))), camp, 32)}
		if _, err := c.Collect(queries[i]); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 64
	var mallocs, bytes uint64
	var before, after runtime.MemStats
	for i := range runs {
		c.DropCaches()
		runtime.ReadMemStats(&before)
		if _, err := c.Collect(queries[i%len(queries)]); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	allocs, size := float64(mallocs)/runs, float64(bytes)/runs
	t.Logf("one cold query: %.1f allocations, %.0f bytes", allocs, size)
	if allocs > coldCollectAllocs || size > coldCollectBytes {
		t.Fatalf("one cold query allocates %.1f times and %.0f bytes, budget %d and %d",
			allocs, size, coldCollectAllocs, coldCollectBytes)
	}
}

// TestPoolRetentionIsBounded: the build of an ordinary query goes back to
// the pool holding nothing of the query; one whose maps grew past the cap
// is dropped, and so is request scratch that did.
func TestPoolRetentionIsBounded(t *testing.T) {
	camp := buildCampus(t, 256)
	c := campusTwin(t, camp, nil)
	q := collector.Query{Hosts: pick(rand.New(rand.NewSource(5)), camp, 32)}
	pooled, held, err := c.PooledAfter(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !pooled || held != 0 {
		t.Fatalf("an ordinary query's build: pooled %t, holding %d entries after its reset", pooled, held)
	}
	if pooled, _, err := c.PooledAfter(q, snmpcoll.PoolMax); err != nil || pooled {
		t.Fatalf("a build past the cap: pooled %t (%v), want dropped", pooled, err)
	}
	if !snmpcoll.RequestPooled(snmpcoll.PoolMax) || snmpcoll.RequestPooled(snmpcoll.PoolMax+1) {
		t.Fatal("request scratch is pooled past the cap, or not up to it")
	}
}
