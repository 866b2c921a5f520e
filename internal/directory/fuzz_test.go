package directory

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"remos/internal/sim"
)

// FuzzServeCommands drives the directory server's line parser with
// arbitrary byte streams: it must answer or reject every input without
// panicking, hanging, or corrupting the service, exactly as it would
// facing a confused or hostile peer on the registration port.
func FuzzServeCommands(f *testing.F) {
	seeds := []string{
		"REGISTER cmu 60 tcp://1.2.3.4:3567 10.0.0.9 2\n10.0.0.0/24\n10.1.0.0/16\n",
		"REGISTER eth 3600 http://collector:80 - 0\n",
		"REGISTER bad ttl tcp://x - 0\n",
		"REGISTER toomany 60 tcp://x - 999999\n",
		"REGISTER p 60 tcp://x - 1\nnot-a-prefix\n",
		"DEREGISTER cmu\n",
		"DEREGISTER\n",
		"LIST\n",
		"NONSENSE with args\n",
		"\n",
		"REGISTER a 60 tcp://x - 1\n", // truncated: prefix line missing
		"REGISTER \x00 -60 tcp://x 999.999.999.999 0\n",
		strings.Repeat("LIST\n", 10),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		svc := New(sim.NewSim())
		// A resident advert ensures LIST renders non-trivial output.
		svc.Register(Advert{
			Name:      "resident",
			Endpoint:  "tcp://127.0.0.1:1",
			BenchHost: netip.MustParseAddr("10.0.0.1"),
			Prefixes:  []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
		}, time.Hour)
		srv := &Server{Service: svc}
		r := bufio.NewReader(bytes.NewReader(data))
		// The reader is finite, so the loop terminates at io.EOF; bound it
		// anyway against pathological no-progress parses.
		for i := 0; i < 1024; i++ {
			if err := srv.serveOne(io.Discard, r); err != nil {
				break
			}
		}
		// The service survives whatever was parsed.
		if _, ok := advertNamed(svc, "resident"); !ok {
			// The fuzz input may legitimately DEREGISTER "resident"; only
			// reads after an observed deregister may miss it.
			if !bytes.Contains(data, []byte("DEREGISTER resident")) {
				t.Fatal("resident advert lost without a deregister")
			}
		}
	})
}

// TestRegisterRoundTripThroughServeOne checks the refactored writer-based
// serveOne against the real client encoding, no socket involved.
func TestRegisterRoundTripThroughServeOne(t *testing.T) {
	svc := New(sim.NewSim())
	srv := &Server{Service: svc}
	in := "REGISTER cmu 60 tcp://1.2.3.4:3567 10.0.0.9 1\n10.0.0.0/24\nLIST\n"
	r := bufio.NewReader(strings.NewReader(in))
	var out bytes.Buffer
	for {
		if err := srv.serveOne(&out, r); err != nil {
			break
		}
	}
	got := out.String()
	if !strings.HasPrefix(got, "OK\nOK 1\nADVERT cmu tcp://1.2.3.4:3567 10.0.0.9 1\n10.0.0.0/24\n") {
		t.Fatalf("serveOne transcript:\n%s", got)
	}
}

// TestTTLExpiryRacesReRegistration pits expiry (Adverts purging stale
// entries) against concurrent re-registration of the same name: the
// entry must always be either the freshly registered advert or absent,
// never a stale resurrection, and the race must be clean under -race.
func TestTTLExpiryRacesReRegistration(t *testing.T) {
	s := sim.NewSim()
	svc := New(s)
	const name = "flapper"
	advert := func(gen int) Advert {
		return Advert{
			Name:     name,
			Endpoint: fmt.Sprintf("tcp://127.0.0.1:%d", 1000+gen),
			Prefixes: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
		}
	}
	svc.Register(advert(0), time.Millisecond)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Re-registrars: refresh the same name with a short TTL.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for gen := 1; ; gen++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := svc.Register(advert(gen), time.Millisecond); err != nil {
					t.Errorf("register: %v", err)
					return
				}
			}
		}(i)
	}
	// Expirers: march the clock so entries constantly age out, and read
	// the directory in every state.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.RunFor(10 * time.Millisecond) // advances Now; Adverts purges
				for _, a := range svc.Adverts() {
					if a.Name != name {
						t.Errorf("foreign advert %q", a.Name)
						return
					}
				}
				advertNamed(svc, name)
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Quiesced: one final registration must win over any expiry.
	svc.Register(advert(9999), time.Hour)
	got, ok := advertNamed(svc, name)
	if !ok || got.Endpoint != "tcp://127.0.0.1:10999" {
		t.Fatalf("final registration lost: ok=%v advert=%+v", ok, got)
	}
}
