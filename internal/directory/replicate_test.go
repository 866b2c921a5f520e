package directory

import (
	"bufio"
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"remos/internal/sim"
)

func fedAdvert(seq uint64, port int) Advert {
	return Advert{
		Name:     "master-east",
		Endpoint: fmt.Sprintf("tcp://127.0.0.1:%d", port),
		Domain:   "east",
		Priority: 1,
		Epoch:    40 + seq,
		Seq:      seq,
		Prefixes: []netip.Prefix{netip.MustParsePrefix("10.1.0.0/16")},
	}
}

// TestReplicaApplyLatestLeaseWins pins the conflict rule for replicated
// re-registration: a strictly newer lease sequence replaces the entry,
// an equal one only extends the expiry, and an older one is rejected —
// so a stale replica circulating through the mesh can never overwrite a
// master's fresh re-registration.
func TestReplicaApplyLatestLeaseWins(t *testing.T) {
	s := sim.NewSim()
	svc := New(s)

	// A local registration is a fresh lease: seq starts at 1.
	if err := svc.Register(fedAdvert(0, 1000), time.Hour); err != nil {
		t.Fatal(err)
	}
	cur, _ := advertNamed(svc, "master-east")
	if cur.Seq != 1 {
		t.Fatalf("local register seq = %d, want 1", cur.Seq)
	}

	// An older replicated copy loses.
	if svc.ReplicaApply(fedAdvert(0, 2000), time.Hour) {
		t.Fatal("stale replica (seq 0) applied over fresh lease (seq 1)")
	}
	cur, _ = advertNamed(svc, "master-east")
	if cur.Endpoint != "tcp://127.0.0.1:1000" {
		t.Fatalf("stale replica overwrote endpoint: %q", cur.Endpoint)
	}

	// An equal one is anti-entropy of the same lease: applied, expiry
	// extended, content untouched.
	before := svc.Status()[0].Expires
	if !svc.ReplicaApply(fedAdvert(1, 3000), 2*time.Hour) {
		t.Fatal("equal-seq replica rejected")
	}
	st := svc.Status()[0]
	if !st.Expires.After(before) {
		t.Fatal("equal-seq replica did not extend expiry")
	}
	if st.Endpoint != "tcp://127.0.0.1:1000" {
		t.Fatalf("equal-seq replica replaced content: %q", st.Endpoint)
	}

	// A newer one replaces — failover: the secondary re-leased the name.
	if !svc.ReplicaApply(fedAdvert(2, 4000), time.Hour) {
		t.Fatal("newer replica rejected")
	}
	cur, _ = advertNamed(svc, "master-east")
	if cur.Endpoint != "tcp://127.0.0.1:4000" || cur.Seq != 2 {
		t.Fatalf("newer replica not applied: %+v", cur)
	}

	// A local re-registration supersedes any replicated copy: its seq
	// advances past whatever the replica carried.
	if err := svc.Register(fedAdvert(0, 5000), time.Hour); err != nil {
		t.Fatal(err)
	}
	cur, _ = advertNamed(svc, "master-east")
	if cur.Seq != 3 || cur.Endpoint != "tcp://127.0.0.1:5000" {
		t.Fatalf("re-registration did not supersede replica: %+v", cur)
	}
	if svc.ReplicaApply(fedAdvert(2, 4000), time.Hour) {
		t.Fatal("replayed old replica applied over re-registration")
	}

	// Once the lease lapses, any replica may claim the name again.
	s.RunFor(2 * time.Hour)
	if !svc.ReplicaApply(fedAdvert(1, 6000), time.Hour) {
		t.Fatal("replica rejected against an expired lease")
	}
}

// TestReplicateConflictOverWire runs the same latest-lease-wins conflict
// through the REPLICATE verb: the applied flag in the reply must report
// exactly what the service decided.
func TestReplicateConflictOverWire(t *testing.T) {
	svc := New(sim.NewSim())
	srv := &Server{Service: svc}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Addr: addr, Timeout: 5 * time.Second}

	applied, err := c.Replicate(fedAdvert(3, 1000), time.Hour)
	if err != nil || !applied {
		t.Fatalf("first replicate: applied=%v err=%v", applied, err)
	}
	applied, err = c.Replicate(fedAdvert(2, 2000), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Fatal("wire replicate applied a stale lease")
	}
	applied, err = c.Replicate(fedAdvert(4, 3000), time.Hour)
	if err != nil || !applied {
		t.Fatalf("newer replicate: applied=%v err=%v", applied, err)
	}
	got, ok := advertNamed(svc, "master-east")
	if !ok || got.Seq != 4 || got.Domain != "east" || got.Priority != 1 || got.Epoch != 44 {
		t.Fatalf("lease fields lost on the wire: %+v", got)
	}
}

// TestReplicatorConvergesMesh wires two directories with a Replicator
// pushing one way and checks the peer converges on the origin's current
// lease — including after a re-registration bumps the sequence.
func TestReplicatorConvergesMesh(t *testing.T) {
	s := sim.NewSim()
	origin := New(s)
	peer := New(sim.NewSim())
	srv := &Server{Service: peer}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := origin.Register(fedAdvert(0, 1000), time.Hour); err != nil {
		t.Fatal(err)
	}
	r := StartReplicator(ReplicatorConfig{
		Service:  origin,
		Peers:    []string{addr},
		Sched:    s,
		Interval: time.Second,
	})
	defer r.Close()

	s.RunFor(time.Second) // first anti-entropy tick
	got, ok := advertNamed(peer, "master-east")
	if !ok || got.Seq != 1 || got.Endpoint != "tcp://127.0.0.1:1000" {
		t.Fatalf("peer after first push: ok=%v %+v", ok, got)
	}

	// The origin re-leases (new endpoint, fresh epoch); the next round
	// must supersede the peer's copy.
	if err := origin.Register(fedAdvert(0, 2000), time.Hour); err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Second)
	got, ok = advertNamed(peer, "master-east")
	if !ok || got.Seq != 2 || got.Endpoint != "tcp://127.0.0.1:2000" {
		t.Fatalf("peer after re-lease: ok=%v %+v", ok, got)
	}
}

// TestExpiryDuringLookupRace races View and Status (whose rebuilds
// purge expired entries) against replication applying fresh leases and
// the clock marching entries to expiry. Run under -race; the invariant
// is that every observed advert is internally consistent — a read never
// yields a half-applied or resurrected lease.
func TestExpiryDuringLookupRace(t *testing.T) {
	s := sim.NewSim()
	svc := New(s)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Appliers: replicate ever-newer leases with tiny TTLs. Seq encodes
	// the port so readers can cross-check consistency.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				a := fedAdvert(seq, int(seq%40000))
				svc.ReplicaApply(a, time.Millisecond)
			}
		}(i)
	}
	// Expirer: march the sim clock so leases lapse mid-lookup.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.RunFor(5 * time.Millisecond)
		}
	}()
	// Readers: every advert seen must have its seq/port correlation
	// intact, whichever side of expiry the lookup landed on.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, a := range svc.View().All {
					want := fmt.Sprintf("tcp://127.0.0.1:%d", a.Seq%40000)
					if a.Endpoint != want {
						t.Errorf("torn advert: seq %d endpoint %q", a.Seq, a.Endpoint)
						return
					}
				}
				for _, st := range svc.Status() {
					if st.Expires.IsZero() {
						t.Error("status entry without expiry")
						return
					}
				}
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// FuzzReplicationMessages drives the REPLICATE verb with arbitrary byte
// streams, mirroring FuzzServeCommands for the federation verb: the
// parser must answer or reject every input without panicking, the
// retired LISTX verb is an unknown command, and latest-lease-wins must
// hold — the resident seq-5 lease can only ever be replaced by a
// strictly newer sequence.
func FuzzReplicationMessages(f *testing.F) {
	seeds := []string{
		"REPLICATE m 60 tcp://1.2.3.4:3567 10.0.0.9 east 1 42 7 2\n10.0.0.0/24\n10.1.0.0/16\n",
		"REPLICATE m 60 tcp://1.2.3.4:3567 - - 0 0 0 0\n",
		"REPLICATE resident 60 tcp://9.9.9.9:9 - east 0 1 1 1\n10.0.0.0/8\n",
		"REPLICATE resident 60 tcp://9.9.9.9:9 - east 0 99 99 1\n10.0.0.0/8\n",
		"REPLICATE m bad tcp://x - - 0 0 0 0\n",
		"REPLICATE m 60 tcp://x - - a b c 0\n",
		"REPLICATE m 60 tcp://x - - 0 0 0 99999\n",
		"REPLICATE m 60 tcp://x 999.999.999.999 - 0 0 0 0\n",
		"REPLICATE m 60 tcp://x - - 0 18446744073709551615 18446744073709551615 1\nnot-a-prefix\n",
		"REPLICATE m 60 tcp://x - - 0 0 1 1\n", // truncated: prefix missing
		"LISTX\n",
		"REPLICATE resident 60 tcp://9.9.9.9:9 - home 0 5 5 1\n10.0.0.0/8\nLIST\n",
		strings.Repeat("REPLICATE m 60 tcp://x - - 0 0 0 0\n", 8),
		"REPLICATE\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		svc := New(sim.NewSim())
		resident := Advert{
			Name:     "resident",
			Endpoint: "tcp://127.0.0.1:1",
			Domain:   "home",
			Seq:      5,
			Prefixes: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
		}
		if !svc.ReplicaApply(resident, time.Hour) {
			t.Fatal("seeding resident advert failed")
		}
		srv := &Server{Service: svc}
		r := bufio.NewReader(bytes.NewReader(data))
		var out bytes.Buffer
		var scratch []byte
		for i := 0; i < 1024; i++ {
			if err := srv.serveOne(&out, r, &scratch); err != nil {
				break
			}
		}
		if bytes.HasPrefix(data, []byte("LISTX\n")) && !bytes.HasPrefix(out.Bytes(), []byte("ERR unknown command")) {
			t.Fatalf("LISTX answered %q, want an unknown-command error", out.String())
		}
		// Latest-lease-wins: while the resident entry exists, its seq can
		// only have grown (a newer replicated lease may replace it, a
		// stale one never rolls it back); only a DEREGISTER removes it.
		found := false
		for _, st := range svc.Status() {
			if st.Name != "resident" {
				continue
			}
			found = true
			if st.Seq < 5 {
				t.Fatalf("stale lease resurrected: %+v", st.Advert)
			}
		}
		if !found && !bytes.Contains(data, []byte("DEREGISTER resident")) {
			t.Fatal("resident lease lost without a deregister")
		}
	})
}

// TestReplicateSubSecondTTL pins the wire encoding of short leases: the
// grammar carries whole seconds, and a 500ms lease must round UP to 1s,
// not truncate to 0 — the receiver reads 0 as "use DefaultTTL", which
// would resurrect a sub-second lease as a three-hour one and keep a
// crashed master's advert alive long past failover.
func TestReplicateSubSecondTTL(t *testing.T) {
	svc := New(sim.NewSim())
	srv := &Server{Service: svc}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Addr: addr, Timeout: 5 * time.Second}

	if applied, err := c.Replicate(fedAdvert(1, 1000), 500*time.Millisecond); err != nil || !applied {
		t.Fatalf("replicate: applied=%v err=%v", applied, err)
	}
	st := svc.Status()
	if len(st) != 1 {
		t.Fatalf("got %d adverts, want 1", len(st))
	}
	// The receiving service's sim clock is frozen at zero, so the lease
	// expiry IS the applied TTL.
	if ttl := st[0].Expires.Sub(svc.Now()); ttl != time.Second {
		t.Fatalf("500ms lease arrived as %v, want 1s (rounded up, not DefaultTTL)", ttl)
	}
}
