package remos_test

import (
	"context"
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"remos"
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

// TestServerFlowsDelegation pins the WithServerFlows contract: default
// flow queries (and the bandwidth query built on them) ride the FLOWS
// verb to the server's answerer, while prediction queries stay
// client-side.
func TestServerFlowsDelegation(t *testing.T) {
	dep, d := stack(t)
	ff := &countingFlows{}
	srv := &proto.TCPServer{Collector: dep.Sites["cmu"].Master, Flows: ff}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m, err := remos.Dial("tcp://"+addr, remos.WithServerFlows())
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

// TestServerFlowsFallback pins the compatibility path: against a server
// without a flow answerer, a WithServerFlows client transparently falls
// back to fetching the graph and solving locally — same answers, same
// typed errors.
func TestServerFlowsFallback(t *testing.T) {
	dep, d := stack(t)
	srv := &proto.TCPServer{Collector: dep.Sites["cmu"].Master}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m, err := remos.Dial("tcp://"+addr, remos.WithServerFlows())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	infos, err := m.GetFlowsContext(ctx,
		[]remos.Flow{{Src: d["app"].Addr(), Dst: d["srv"].Addr()}}, remos.FlowOptions{})
	if err != nil {
		t.Fatalf("fallback flow query: %v", err)
	}
	if len(infos) != 1 || infos[0].Available <= 0 {
		t.Fatalf("fallback answer = %+v, want a positive local answer", infos)
	}

	// Typed errors survive the fallback path.
	_, err = m.GetFlowsContext(ctx,
		[]remos.Flow{{Src: netip.MustParseAddr("203.0.113.7"), Dst: d["srv"].Addr()}}, remos.FlowOptions{})
	if !errors.Is(err, remos.ErrUnknownHost) {
		t.Fatalf("err = %v, want ErrUnknownHost", err)
	}
}
