package directory

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/collector/master"
	"remos/internal/proto"
	"remos/internal/sim"
)

func startDirServer(t *testing.T) (*Service, *Client) {
	t.Helper()
	svc := New(sim.NewSim())
	srv := &Server{Service: svc}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return svc, &Client{Addr: addr}
}

func TestRemoteRegisterListDeregister(t *testing.T) {
	svc, cl := startDirServer(t)
	a := Advert{
		Name:      "siteX",
		Prefixes:  []netip.Prefix{pfx("10.5.0.0/16"), pfx("10.6.0.0/16")},
		Endpoint:  "tcp://collector.siteX:3567",
		BenchHost: adr("10.5.0.9"),
	}
	if err := cl.Register(a, time.Hour); err != nil {
		t.Fatal(err)
	}
	// Visible server-side.
	got, ok := advertNamed(svc, "siteX")
	if !ok || got.Name != "siteX" || got.Endpoint != a.Endpoint {
		t.Fatalf("server-side advert = %+v ok=%v", got, ok)
	}
	// Visible through LIST.
	listed, err := cl.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 || listed[0].Name != "siteX" || len(listed[0].Prefixes) != 2 {
		t.Fatalf("List = %+v", listed)
	}
	if listed[0].BenchHost != a.BenchHost {
		t.Fatalf("bench host lost: %v", listed[0].BenchHost)
	}
	if err := cl.Deregister("siteX"); err != nil {
		t.Fatal(err)
	}
	if _, ok := advertNamed(svc, "siteX"); ok {
		t.Fatal("deregistered advert still listed")
	}
}

func TestRemoteRegisterValidation(t *testing.T) {
	_, cl := startDirServer(t)
	if err := cl.Register(Advert{Name: "x"}, 0); err == nil {
		t.Fatal("endpointless remote registration accepted")
	}
	if err := cl.Register(Advert{Endpoint: "tcp://y:1"}, 0); err == nil {
		t.Fatal("nameless registration accepted")
	}
}

func TestRemoteAdvertWithoutBenchHost(t *testing.T) {
	svc, cl := startDirServer(t)
	if err := cl.Register(Advert{
		Name: "nobench", Prefixes: []netip.Prefix{pfx("10.7.0.0/16")},
		Endpoint: "tcp://c:1",
	}, time.Hour); err != nil {
		t.Fatal(err)
	}
	a, ok := advertNamed(svc, "nobench")
	if !ok || a.BenchHost.IsValid() {
		t.Fatalf("advert = %+v ok=%v", a, ok)
	}
}

// TestFullRemoteControlPlane: a collector served over the ASCII protocol
// registers itself (by endpoint) with a remote directory; a master using
// that directory routes application queries to it. Nothing is wired by
// hand — this is the SLP + GMA-style discovery story end to end.
func TestFullRemoteControlPlane(t *testing.T) {
	svc, dirClient := startDirServer(t)

	fc := &fakeColl{name: "remote-site"}
	collSrv := &proto.TCPServer{Collector: fc}
	collAddr, err := collSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer collSrv.Close()

	// The remote site registers itself.
	if err := dirClient.Register(Advert{
		Name:     "remote-site",
		Prefixes: []netip.Prefix{pfx("10.8.0.0/16")},
		Endpoint: "tcp://" + collAddr,
	}, time.Hour); err != nil {
		t.Fatal(err)
	}

	// A master on the directory host serves applications.
	m := master.New(master.Config{Name: "m", Directory: svc})
	res, err := m.Collect(collector.Query{Hosts: []netip.Addr{adr("10.8.3.4")}})
	if err != nil {
		t.Fatal(err)
	}
	if fc.hits != 1 {
		t.Fatalf("remote collector hits = %d", fc.hits)
	}
	if res.Graph.Node("10.8.3.4") == nil {
		t.Fatal("answer lost the queried host")
	}
}

func TestServerSurvivesGarbage(t *testing.T) {
	_, cl := startDirServer(t)
	// A raw connection spewing junk is answered with ERR lines and then
	// dropped; the server keeps serving well-formed clients.
	conn, err := net.Dial("tcp", cl.Addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("HELLO WORLD\nREGISTER broken\n"))
	conn.Close()
	if err := cl.Register(Advert{
		Name: "ok", Prefixes: []netip.Prefix{pfx("10.9.0.0/16")},
		Endpoint: "tcp://c:1",
	}, time.Hour); err != nil {
		t.Fatalf("server broken after garbage: %v", err)
	}
	// Malformed prefix gets a protocol-level ERR, not a hang.
	conn2, err := net.Dial("tcp", cl.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	conn2.Write([]byte("REGISTER bad 60 tcp://x:1 - 1\nnot-a-prefix\n"))
	buf := make([]byte, 256)
	conn2.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn2.Read(buf)
	if err != nil || n == 0 || string(buf[:3]) != "ERR" {
		t.Fatalf("expected ERR reply, got %q err=%v", buf[:n], err)
	}
}
