package master

import (
	"context"
	"errors"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/rerr"
)

// blockingFake parks every Collect on the query's context.
type blockingFake struct {
	name    string
	entered chan struct{}
}

func (b *blockingFake) Name() string { return b.name }
func (b *blockingFake) Collect(q collector.Query) (*collector.Result, error) {
	b.entered <- struct{}{}
	<-q.Context().Done()
	return nil, q.Context().Err()
}

func TestCancellationMidFanout(t *testing.T) {
	// Two sites, both blocking: cancellation must reach every in-flight
	// sub-query and Collect must return the caller's error, not a
	// collector-unavailable classification.
	siteA := &blockingFake{name: "snmp-a", entered: make(chan struct{}, 1)}
	siteB := &blockingFake{name: "snmp-b", entered: make(chan struct{}, 1)}
	m := New(Config{
		Name: "master-a",
		Directory: entries{
			{Name: "a", Prefixes: []netip.Prefix{pfx("10.0.1.0/24")}, Collector: siteA, BenchHost: addr("10.0.1.9")},
			{Name: "b", Prefixes: []netip.Prefix{pfx("10.0.2.0/24")}, Collector: siteB, BenchHost: addr("10.0.2.9")},
		},
		WideArea: &fake{name: "bench", results: func(q collector.Query) (*collector.Result, error) {
			return lineGraph("10.0.1.9", "10.0.2.9"), nil
		}},
		Parallelism: 4,
	})

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		q := collector.Query{Hosts: []netip.Addr{addr("10.0.1.1"), addr("10.0.2.1")}}
		_, err := m.Collect(q.WithContext(ctx))
		done <- err
	}()
	// Both site sub-queries are in flight before the cancel fires.
	<-siteA.entered
	<-siteB.entered
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if errors.Is(err, rerr.ErrCollectorUnavailable) {
			t.Fatalf("caller cancellation misclassified as collector failure: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fan-out did not unwind after cancellation")
	}

	// Every fan-out goroutine must unwind; allow the runtime a moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after cancellation: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPreCanceledQueryShortCircuits(t *testing.T) {
	siteA := &fake{name: "snmp-a", results: func(q collector.Query) (*collector.Result, error) {
		t.Error("sub-collector reached despite pre-canceled context")
		return lineGraph("10.0.1.1"), nil
	}}
	m := New(Config{
		Name: "master-a",
		Directory: entries{
			{Name: "a", Prefixes: []netip.Prefix{pfx("10.0.1.0/24")}, Collector: siteA},
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := collector.Query{Hosts: []netip.Addr{addr("10.0.1.1")}}
	_, err := m.Collect(q.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
