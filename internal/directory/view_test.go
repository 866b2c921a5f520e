package directory

import (
	"fmt"
	"io"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/proto"
	"remos/internal/sim"
)

// describe renders what the next read of the directory sees, through
// every reader of the view: Adverts (name, seq, epoch), the lease left
// on each advert in Status, and the domains with their failover order.
func describe(s *sim.Sim, d *Service) string {
	var b strings.Builder
	for _, a := range d.Adverts() {
		fmt.Fprintf(&b, "%s/%d/%d ", a.Name, a.Seq, a.Epoch)
	}
	b.WriteString("| ")
	for _, st := range d.Status() {
		fmt.Fprintf(&b, "%s:%v ", st.Name, st.Expires.Sub(s.Now()))
	}
	b.WriteString("|")
	for _, dom := range d.View().Domains {
		b.WriteString(" " + dom.Name + ":")
		for _, a := range dom.Adverts {
			b.WriteString(a.Name + ",")
		}
	}
	return b.String()
}

func viewAdvert(name string, prio int, epoch uint64) Advert {
	return Advert{
		Name: name, Domain: "east", Priority: prio, Epoch: epoch,
		Endpoint: "tcp://127.0.0.1:1", Prefixes: []netip.Prefix{pfx("10.1.0.0/16")},
	}
}

// TestViewIsAsFreshAsTheLeases pins the view's contract: it is rebuilt
// by the first read after any mutation, and by the first read after a
// lease in it lapses with no mutation at all, so every reader sees
// exactly what a fresh listing of the unexpired leases would.
func TestViewIsAsFreshAsTheLeases(t *testing.T) {
	cases := []struct {
		name string
		do   func(s *sim.Sim, d *Service)
		want string
	}{
		{
			name: "nothing happens",
			do:   func(*sim.Sim, *Service) {},
			want: "a/1/1 b/1/1 | a:1s b:10s | east:a,b,",
		},
		{
			name: "a's lease lapses with no mutation",
			do:   func(s *sim.Sim, _ *Service) { s.RunFor(1500 * time.Millisecond) },
			want: "b/1/1 | b:8.5s | east:b,",
		},
		{
			name: "register",
			do:   func(_ *sim.Sim, d *Service) { d.Register(viewAdvert("c", 0, 3), time.Minute) },
			want: "a/1/1 b/1/1 c/1/3 | a:1s b:10s c:1m0s | east:a,c,b,",
		},
		{
			name: "re-register moves the epoch",
			do:   func(_ *sim.Sim, d *Service) { d.Register(viewAdvert("a", 0, 2), time.Second) },
			want: "a/2/2 b/1/1 | a:1s b:10s | east:a,b,",
		},
		{
			name: "replica with a newer sequence",
			do: func(_ *sim.Sim, d *Service) {
				a := viewAdvert("a", 2, 7)
				a.Seq = 5
				d.ReplicaApply(a, time.Second)
			},
			want: "a/5/7 b/1/1 | a:1s b:10s | east:b,a,",
		},
		{
			name: "replica with the same sequence and a later expiry",
			do: func(_ *sim.Sim, d *Service) {
				a := viewAdvert("a", 0, 1)
				a.Seq = 1
				d.ReplicaApply(a, 5*time.Second)
			},
			want: "a/1/1 b/1/1 | a:5s b:10s | east:a,b,",
		},
		{
			name: "an extended lease outlives its first expiry",
			do: func(s *sim.Sim, d *Service) {
				a := viewAdvert("a", 0, 1)
				a.Seq = 1
				d.ReplicaApply(a, 5*time.Second)
				s.RunFor(1500 * time.Millisecond)
			},
			want: "a/1/1 b/1/1 | a:3.5s b:8.5s | east:a,b,",
		},
		{
			name: "deregister",
			do:   func(_ *sim.Sim, d *Service) { d.Deregister("a") },
			want: "b/1/1 | b:10s | east:b,",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.NewSim()
			d := New(s)
			d.Register(viewAdvert("a", 0, 1), time.Second)
			d.Register(viewAdvert("b", 1, 1), 10*time.Second)
			if got, want := describe(s, d), cases[0].want; got != want {
				t.Fatalf("first read:\n got %q\nwant %q", got, want)
			}
			tc.do(s, d)
			if got := describe(s, d); got != tc.want {
				t.Fatalf("next read:\n got %q\nwant %q", got, tc.want)
			}
			d.mu.Lock()
			defer d.mu.Unlock()
			for name, e := range d.entries {
				if e.expires.Before(s.Now()) {
					t.Errorf("expired %q not purged by the read", name)
				}
			}
		})
	}
}

// TestViewBesideRegistrations reads views while registrations, replica
// applies, deregistrations and the clock all move under them (run under
// -race): every view is internally consistent — All sorted by name with
// no lapsed lease, each domain's adverts in failover order and drawn
// from All — and a quiet directory hands every reader the same view.
func TestViewBesideRegistrations(t *testing.T) {
	s := sim.NewSim()
	d := New(s)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	writer := func(i int) {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("w%d-%d", i, n%5)
			switch n % 4 {
			case 0, 1:
				d.Register(viewAdvert(name, n%3, uint64(n)), time.Duration(1+n%7)*time.Millisecond)
			case 2:
				a := viewAdvert(name, n%2, uint64(n))
				a.Seq = uint64(n)
				d.ReplicaApply(a, 3*time.Millisecond)
			case 3:
				d.Deregister(name)
			}
		}
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go writer(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.RunFor(time.Millisecond)
		}
	}()
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
				if err := checkView(d.View()); err != nil {
					t.Error(err)
					return
				}
				d.Status()
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	if v := d.View(); d.View() != v {
		t.Fatal("two reads of a quiet directory built two views")
	}
}

// checkView reports how a view is inconsistent, if it is.
func checkView(v *View) error {
	if !sort.SliceIsSorted(v.All, func(i, j int) bool { return v.All[i].Name < v.All[j].Name }) {
		return fmt.Errorf("view not sorted by name: %+v", v.All)
	}
	byName := make(map[string]AdvertStatus, len(v.All))
	for _, st := range v.All {
		if st.Expires.Before(v.expires) {
			return fmt.Errorf("lease %q expires before the view's earliest expiry", st.Name)
		}
		byName[st.Name] = st
	}
	n := 0
	for i, dom := range v.Domains {
		if i > 0 && v.Domains[i-1].Name >= dom.Name {
			return fmt.Errorf("domains not sorted: %q then %q", v.Domains[i-1].Name, dom.Name)
		}
		for j, st := range dom.Adverts {
			n++
			if all, ok := byName[st.Name]; !ok || st.Domain != dom.Name || all.Seq != st.Seq || !all.Expires.Equal(st.Expires) {
				return fmt.Errorf("domain %q holds %+v, not its entry of All", dom.Name, st.Advert)
			}
			if j > 0 {
				prev := dom.Adverts[j-1]
				if prev.Priority > st.Priority || (prev.Priority == st.Priority && prev.Name >= st.Name) {
					return fmt.Errorf("domain %q not in failover order: %q then %q", dom.Name, prev.Name, st.Name)
				}
			}
		}
	}
	if n != len(v.All) {
		return fmt.Errorf("domains hold %d adverts, All %d (every test advert has a domain)", n, len(v.All))
	}
	return nil
}

// closeWatch stands between a client and target: it accepts one
// connection, splices it to target, and closes the returned channel once
// the client side has hung up.
func closeWatch(t *testing.T, target string) (addr string, closed <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	done := make(chan struct{})
	go func() {
		client, err := ln.Accept()
		if err != nil {
			return
		}
		defer client.Close()
		server, err := net.Dial("tcp", target)
		if err != nil {
			return
		}
		defer server.Close()
		go io.Copy(client, server) //nolint:errcheck
		io.Copy(server, client)    //nolint:errcheck
		close(done)
	}()
	return ln.Addr().String(), done
}

// TestRetiredClientIsClosed re-registers an advert at a new endpoint:
// the next read closes the client cached for the old endpoint, whose
// server sees its connection go, and the cache holds only the client
// for the new one.
func TestRetiredClientIsClosed(t *testing.T) {
	var addrs [2]string
	for i := range addrs {
		srv := &proto.TCPServer{Collector: &fakeColl{name: fmt.Sprintf("remote%d", i)}}
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = addr
	}
	first, firstClosed := closeWatch(t, addrs[0])

	d := New(sim.NewSim())
	register := func(addr string) {
		if err := d.Register(Advert{
			Name: "remote", Prefixes: []netip.Prefix{pfx("10.9.0.0/16")}, Endpoint: "tcp://" + addr,
		}, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	query := func() {
		entries, err := d.Entries()
		if err != nil || len(entries) != 1 {
			t.Fatalf("entries = %v, %v", entries, err)
		}
		if _, err := entries[0].Collector.Collect(collector.Query{Hosts: []netip.Addr{adr("10.9.1.1")}}); err != nil {
			t.Fatal(err)
		}
	}
	register(first)
	query()
	register(addrs[1])
	query()

	select {
	case <-firstClosed:
	case <-time.After(5 * time.Second):
		t.Fatal("the client for the retired endpoint still holds its connection")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.resolved) != 1 {
		t.Fatalf("client cache holds %d entries, want 1: %v", len(d.resolved), d.resolved)
	}
	if _, ok := d.resolved[resolveKey{"remote", "tcp://" + addrs[1]}]; !ok {
		t.Fatalf("client cache lacks the new endpoint: %v", d.resolved)
	}
}
