// Package conc provides the small concurrency primitives the collector
// pipeline is built from: a bounded parallel for-loop with deterministic
// error selection, and a generic single-flight call deduplicator. The
// collectors use these instead of unbounded goroutine fan-out so a
// "millions of users" query storm degrades into queueing, not into a
// goroutine explosion.
package conc

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Limit normalizes a parallelism knob: values <= 0 select GOMAXPROCS.
func Limit(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0,n) using at most par concurrent
// workers (par <= 0 selects GOMAXPROCS). With par == 1 the items run
// serially in order and the loop stops at the first error, exactly like a
// plain for-loop. With par > 1 every item runs even when some fail, and
// the returned error is the failing item with the LOWEST index — so the
// error a caller observes does not depend on goroutine completion order.
// At par == 1 the loop allocates nothing: a caller handing it a func made
// once pays nothing per loop.
func ForEach(n, par int, fn func(int) error) error {
	return forEach(context.Background(), n, par, fn)
}

// ForEachCtx is ForEach with cancellation: once ctx is done, workers
// stop picking up new items (items already running are left to finish —
// fn itself observes ctx for in-item cancellation). When the context is
// canceled before all items ran and no item failed first, the context's
// error is returned, so callers see context.Canceled / DeadlineExceeded.
func ForEachCtx(ctx context.Context, n, par int, fn func(int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := forEach(ctx, n, par, fn); err != nil {
		return err
	}
	return ctx.Err()
}

// forEach is ForEach checking ctx before each item. The check sits in the
// loop, not in a wrapper around fn, so a loop makes no closure of its own.
func forEach(ctx context.Context, n, par int, fn func(int) error) error {
	if n <= 0 {
		return nil
	}
	par = Limit(par)
	if par > n {
		par = n
	}
	if par == 1 {
		for i := 0; i < n; i++ {
			if err := run(ctx, fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := run(ctx, fn, i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// run runs item i, unless ctx is done.
func run(ctx context.Context, fn func(int) error, i int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return fn(i)
}

// Flight deduplicates concurrent calls by key: while a call for a key is
// in flight, later callers for the same key wait for it and share its
// result instead of repeating the work. Results are not retained once the
// flight lands — callers wanting a cache layer put one in front (see
// package qcache). The zero value is ready to use.
type Flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*flightCall[V]
}

// flightCall is one call in flight. Its waiters wait on the embedded
// WaitGroup, so a call costs one allocation, not a call and a channel.
type flightCall[V any] struct {
	sync.WaitGroup
	val V
	err error
}

// Do invokes fn once per key among concurrent callers. shared reports
// whether the result came from another caller's invocation.
func (f *Flight[K, V]) Do(key K, fn func() (V, error)) (v V, err error, shared bool) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[K]*flightCall[V])
	}
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		c.Wait()
		return c.val, c.err, true
	}
	c := new(flightCall[V])
	c.Add(1)
	f.calls[key] = c
	f.mu.Unlock()

	c.val, c.err = fn()
	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	c.Done()
	return c.val, c.err, false
}
