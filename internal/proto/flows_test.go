package proto

import (
	"context"
	"errors"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"remos/internal/modeler"
	"remos/internal/rerr"
)

// fakeFlows answers flow queries with deterministic synthetic infos and
// records what it was asked.
type fakeFlows struct {
	mu   sync.Mutex
	got  [][]modeler.Flow
	fail error
}

func (f *fakeFlows) GetFlowsContext(ctx context.Context, flows []modeler.Flow, opt modeler.FlowOptions) ([]modeler.FlowInfo, error) {
	f.mu.Lock()
	f.got = append(f.got, append([]modeler.Flow(nil), flows...))
	fail := f.fail
	f.mu.Unlock()
	if fail != nil {
		return nil, fail
	}
	infos := make([]modeler.FlowInfo, len(flows))
	for i, fl := range flows {
		infos[i] = modeler.FlowInfo{
			Flow:      fl,
			Available: 6e6 + float64(i)*1e6,
			Latency:   14 * time.Millisecond,
			Jitter:    2 * time.Millisecond,
			Path:      []string{fl.Src.String(), "r1", fl.Dst.String()},
			Predicted: 6e6 + float64(i)*1e6,
		}
	}
	return infos, nil
}

func (f *fakeFlows) lastQuery() []modeler.Flow {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.got) == 0 {
		return nil
	}
	return f.got[len(f.got)-1]
}

// flowsClient is the client side of the FLOWS verb on either transport.
type flowsClient interface {
	Flows(ctx context.Context, flows []modeler.Flow) ([]modeler.FlowInfo, error)
}

func checkFlowsRoundTrip(t *testing.T, cl flowsClient, ff *fakeFlows) {
	t.Helper()
	flows := []modeler.Flow{
		{Src: netip.MustParseAddr("10.0.1.1"), Dst: netip.MustParseAddr("10.0.2.1")},
		{Src: netip.MustParseAddr("10.0.2.1"), Dst: netip.MustParseAddr("10.0.1.1"), Demand: 3e6},
	}
	infos, err := cl.Flows(context.Background(), flows)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("got %d answers, want 2", len(infos))
	}
	for i, fi := range infos {
		if fi.Available != 6e6+float64(i)*1e6 {
			t.Fatalf("answer %d available = %v", i, fi.Available)
		}
		if fi.Latency != 14*time.Millisecond || fi.Jitter != 2*time.Millisecond {
			t.Fatalf("answer %d latency/jitter = %v/%v", i, fi.Latency, fi.Jitter)
		}
		wantPath := []string{flows[i].Src.String(), "r1", flows[i].Dst.String()}
		if !reflect.DeepEqual(fi.Path, wantPath) {
			t.Fatalf("answer %d path = %v, want %v", i, fi.Path, wantPath)
		}
		// The positional wire answer re-attaches the request.
		if fi.Flow.Src != flows[i].Src || fi.Flow.Dst != flows[i].Dst {
			t.Fatalf("answer %d request not re-attached: %+v", i, fi.Flow)
		}
	}
	// The server-side answerer saw the flows verbatim, demand included.
	if got := ff.lastQuery(); !reflect.DeepEqual(got, flows) {
		t.Fatalf("server saw %+v, want %+v", got, flows)
	}
}

func TestASCIIFlowsRoundTrip(t *testing.T) {
	ff := &fakeFlows{}
	srv := &TCPServer{Collector: &echoCollector{}, Flows: ff}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := &TCPClient{Addr: addr}
	defer cl.Close()
	checkFlowsRoundTrip(t, cl, ff)
}

func TestXMLFlowsRoundTrip(t *testing.T) {
	ff := &fakeFlows{}
	srv := &HTTPServer{Collector: &echoCollector{}, Flows: ff}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	checkFlowsRoundTrip(t, &HTTPClient{BaseURL: "http://" + addr}, ff)
}

// TestFlowsErrorCodeSurvivesBothTransports pins the rerr taxonomy across
// the FLOWS wire: a tagged answerer error comes back Is-matchable, and
// the ASCII connection survives the application-level error.
func TestFlowsErrorCodeSurvivesBothTransports(t *testing.T) {
	ff := &fakeFlows{fail: rerr.WithRetryAfter(rerr.Tagf(rerr.ErrUnknownHost, "proto test: no such endpoint"), 250*time.Millisecond)}

	tsrv := &TCPServer{Collector: &echoCollector{}, Flows: ff}
	taddr, err := tsrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tsrv.Close()
	tcl := &TCPClient{Addr: taddr}
	defer tcl.Close()

	hsrv := &HTTPServer{Collector: &echoCollector{}, Flows: ff}
	haddr, err := hsrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hsrv.Close()
	hcl := &HTTPClient{BaseURL: "http://" + haddr}

	flows := []modeler.Flow{{Src: netip.MustParseAddr("10.9.9.9"), Dst: netip.MustParseAddr("10.0.1.1")}}
	for _, cl := range []flowsClient{tcl, hcl} {
		_, err := cl.Flows(context.Background(), flows)
		if !errors.Is(err, rerr.ErrUnknownHost) {
			t.Fatalf("%T: err = %v, want ErrUnknownHost to survive the wire", cl, err)
		}
		if d, _ := rerr.RetryAfter(err); d != 250*time.Millisecond {
			t.Fatalf("%T: retry-after hint = %v over the wire, want 250ms", cl, d)
		}
	}
	// The persistent ASCII connection is still usable afterwards.
	ff.mu.Lock()
	ff.fail = nil
	ff.mu.Unlock()
	if _, err := tcl.Flows(context.Background(), flows); err != nil {
		t.Fatalf("ASCII connection unusable after flow error: %v", err)
	}
}

// TestFlowsWithoutAnswererUnavailable pins the nil-Flows contract on
// both transports: a typed ErrCollectorUnavailable, not a hang or a
// dropped connection.
func TestFlowsWithoutAnswererUnavailable(t *testing.T) {
	tsrv := &TCPServer{Collector: &echoCollector{}}
	taddr, err := tsrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tsrv.Close()
	tcl := &TCPClient{Addr: taddr}
	defer tcl.Close()

	hsrv := &HTTPServer{Collector: &echoCollector{}}
	haddr, err := hsrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hsrv.Close()
	hcl := &HTTPClient{BaseURL: "http://" + haddr}

	flows := []modeler.Flow{{Src: netip.MustParseAddr("10.0.1.1"), Dst: netip.MustParseAddr("10.0.2.1")}}
	for _, cl := range []flowsClient{tcl, hcl} {
		if _, err := cl.Flows(context.Background(), flows); !errors.Is(err, rerr.ErrCollectorUnavailable) {
			t.Fatalf("%T: err = %v, want ErrCollectorUnavailable", cl, err)
		}
	}
}
