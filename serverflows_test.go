package remos_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/netip"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remos"
	"remos/internal/collector"
	"remos/internal/modeler"
	"remos/internal/proto"
)

// countingFlows is a server-side flow answerer with a recognizable
// answer, so tests can tell a delegated answer from a locally computed
// one.
type countingFlows struct {
	mu    sync.Mutex
	calls int
}

func (c *countingFlows) GetFlowsContext(ctx context.Context, flows []modeler.Flow, opt modeler.FlowOptions) ([]modeler.FlowInfo, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	out := make([]modeler.FlowInfo, len(flows))
	for i, f := range flows {
		out[i] = modeler.FlowInfo{
			Flow:      f,
			Available: 42e6,
			Latency:   7 * time.Millisecond,
			Path:      []string{f.Src.String(), f.Dst.String()},
			Predicted: 42e6,
		}
	}
	return out, nil
}

func (c *countingFlows) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// TestServerFlowsDelegation pins what Dial gives: flow queries (and the
// bandwidth query built on them) ride the FLOWS verb to the server's
// answerer, while prediction queries stay client-side.
func TestServerFlowsDelegation(t *testing.T) {
	dep, d := stack(t)
	ff := &countingFlows{}
	srv := &proto.TCPServer{Collector: dep.Sites["cmu"].Master, Flows: ff}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m, err := remos.Dial("tcp://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	flows := []remos.Flow{{Src: d["app"].Addr(), Dst: d["srv"].Addr()}}
	infos, err := m.GetFlowsContext(ctx, flows, remos.FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Available != 42e6 {
		t.Fatalf("delegated answer = %+v, want the server answerer's 42e6", infos)
	}
	if got := ff.count(); got != 1 {
		t.Fatalf("server answerer saw %d queries, want 1", got)
	}

	// AvailableBandwidthContext is a one-flow query underneath; it delegates too.
	bw, err := m.AvailableBandwidthContext(ctx, d["app"].Addr(), d["srv"].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if bw != 42e6 {
		t.Fatalf("bw = %v, want the server answerer's 42e6", bw)
	}
	if got := ff.count(); got != 2 {
		t.Fatalf("server answerer saw %d queries, want 2", got)
	}

	// Prediction queries need collector-side history and client-side
	// model choices: they walk the collectors from here and never reach
	// the server answerer.
	infos, err = m.GetFlowsContext(ctx, flows, remos.FlowOptions{Predict: true})
	if err != nil {
		t.Fatal(err)
	}
	if infos[0].Available == 42e6 {
		t.Fatal("prediction query answered by the server answerer, want a local walk")
	}
	if got := ff.count(); got != 2 {
		t.Fatalf("server answerer saw %d queries after predict query, want 2", got)
	}
}

// askedColl is a server collector that counts the queries it is asked.
type askedColl struct{ calls atomic.Int32 }

func (c *askedColl) Name() string { return "asked" }

func (c *askedColl) Collect(collector.Query) (*collector.Result, error) {
	c.calls.Add(1)
	return nil, errors.New("askedColl: no network")
}

// TestServerFlowsWithoutAnswerer: against a server with no flow
// answerer, a dialed flow query fails with ErrCollectorUnavailable after
// its one FLOWS exchange, over both transports. The client does not ask
// again as a graph fetch, so the server's collector is never asked.
func TestServerFlowsWithoutAnswerer(t *testing.T) {
	coll := &askedColl{}
	tsrv := &proto.TCPServer{Collector: coll}
	taddr, err := tsrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tsrv.Close()
	hsrv := &proto.HTTPServer{Collector: coll}
	haddr, err := hsrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hsrv.Close()
	// The XML server sits behind a front end that counts its exchanges.
	var exchanges atomic.Int32
	rp := httputil.NewSingleHostReverseProxy(&url.URL{Scheme: "http", Host: haddr})
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		exchanges.Add(1)
		rp.ServeHTTP(w, r)
	}))
	defer front.Close()

	flows := []remos.Flow{{Src: netip.MustParseAddr("10.0.1.1"), Dst: netip.MustParseAddr("10.0.2.1")}}
	for _, target := range []string{"tcp://" + taddr, front.URL} {
		m, err := remos.Dial(target)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, err = m.GetFlowsContext(ctx, flows, remos.FlowOptions{})
		cancel()
		m.Close()
		if !errors.Is(err, remos.ErrCollectorUnavailable) {
			t.Errorf("%s: err = %v, want ErrCollectorUnavailable", target, err)
		}
	}
	if n := exchanges.Load(); n != 1 {
		t.Errorf("XML server saw %d exchanges, want the one FLOWS", n)
	}
	if n := coll.calls.Load(); n != 0 {
		t.Errorf("server collector asked %d times, want never", n)
	}
}
