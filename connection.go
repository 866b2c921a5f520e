package remos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"sync"

	"remos/internal/proto"
	"remos/internal/watch"
)

// Update is one push from a watched subscription: the fresh bottleneck
// available bandwidth for the watched pair, the previously pushed value,
// and the reason the predicate fired ("init", "below", "above",
// "change"). A terminal Update carries the typed close reason in Err
// (classified like query errors — ErrCollectorUnavailable, the caller's
// context error, ...) and is followed by the channel closing.
type Update = watch.Update

// WatchQuery names the endpoint pair a watch monitors. The watched
// value is the pair's bottleneck available bandwidth — the same number
// AvailableBandwidthContext reports.
type WatchQuery struct {
	Src, Dst netip.Addr
}

// WatchOption customizes a watch subscription.
type WatchOption func(*watch.Spec)

// WatchBelow pushes an update when availability drops below bits/s
// (edge-triggered: once per downward crossing).
func WatchBelow(bits float64) WatchOption {
	return func(s *watch.Spec) { s.Below = bits }
}

// WatchAbove pushes an update when availability rises above bits/s
// (edge-triggered).
func WatchAbove(bits float64) WatchOption {
	return func(s *watch.Spec) { s.Above = bits }
}

// WatchOnChange pushes an update whenever availability moves by frac
// (0.1 = 10%) relative to the last pushed value.
func WatchOnChange(frac float64) WatchOption {
	return func(s *watch.Spec) { s.ChangeFrac = frac }
}

// WatchBuffer sets the update channel depth (default 16). A consumer
// lagging further behind loses intermediate updates, never blocks the
// server's measurement path.
func WatchBuffer(n int) WatchOption {
	return func(s *watch.Spec) { s.Buf = n }
}

// Connection is a Modeler plus the subscription plane: every query the
// Modeler answers, Watch for server-pushed updates, and Close. Build one
// with Dial.
type Connection struct {
	*Modeler
	client   proto.Client
	hostLoad proto.Client // nil without WithHostLoad

	mu      sync.Mutex
	watches map[uint64]context.CancelFunc // live watches, by sequence number
	nextID  uint64
	closed  bool
}

// Close tears the connection down: every live Watch started through it
// is cancelled — the server releases the subscriptions and the tenant's
// watch quota — and the underlying protocol connections, the host load
// one included, are dropped. Update channels drain their terminal update
// and close as usual.
// Close is idempotent; queries after Close redial transparently on the
// protocols that can (ASCII), so Close is also a way to reset a
// connection.
func (c *Connection) Close() error {
	c.mu.Lock()
	watches := c.watches
	c.watches = nil
	c.closed = true
	c.mu.Unlock()
	for _, cancel := range watches {
		cancel()
	}
	return errors.Join(closeClient(c.client), closeClient(c.hostLoad))
}

// closeClient drops a protocol client's connection, if it holds one.
func closeClient(c proto.Client) error {
	if c, ok := c.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Watch subscribes to server-pushed updates for the pair's available
// bandwidth. At least one predicate option (WatchBelow, WatchAbove,
// WatchOnChange) is required. The first update reports the baseline
// ("init" — or the predicate's reason if it already holds); later
// updates arrive as the continuously-collecting server sees the
// predicate fire, with no polling from this client.
//
// The channel closes when the watch ends. Cancellation of ctx, server
// shutdown, and a dropped connection all deliver a final Update whose
// Err carries the typed close reason, then close the channel; every
// goroutine involved is torn down.
func (c *Connection) Watch(ctx context.Context, q WatchQuery, opts ...WatchOption) (<-chan Update, error) {
	spec := watch.Spec{Src: q.Src, Dst: q.Dst}
	for _, o := range opts {
		o(&spec)
	}
	// Track the watch so Connection.Close tears it down (releasing the
	// server-side subscription and the tenant's quota slot).
	wctx, cancel := context.WithCancel(ctx)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("remos: connection is closed")
	}
	id := c.nextID
	c.nextID++
	if c.watches == nil {
		c.watches = make(map[uint64]context.CancelFunc)
	}
	c.watches[id] = cancel
	c.mu.Unlock()
	// Forget the watch once its context ends, so a long-lived Connection
	// holds state only for the watches still running.
	context.AfterFunc(wctx, func() {
		c.mu.Lock()
		delete(c.watches, id)
		c.mu.Unlock()
	})
	ch, err := c.client.Watch(wctx, spec)
	if err != nil {
		cancel()
		return nil, err
	}
	return ch, nil
}
