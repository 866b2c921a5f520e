package conc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryItem(t *testing.T) {
	for _, par := range []int{1, 2, 8, 0} {
		var hits [100]atomic.Int32
		if err := ForEach(len(hits), par, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("par=%d: item %d ran %d times", par, i, got)
			}
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const par = 3
	var cur, max atomic.Int32
	var mu sync.Mutex
	if err := ForEach(64, par, func(int) error {
		c := cur.Add(1)
		mu.Lock()
		if c > max.Load() {
			max.Store(c)
		}
		mu.Unlock()
		cur.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > par {
		t.Fatalf("observed %d concurrent workers, want <= %d", m, par)
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	for _, par := range []int{1, 4} {
		err := ForEach(32, par, func(i int) error {
			if i%7 == 3 { // fails at 3, 10, 17, 24, 31
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 3" {
			t.Fatalf("par=%d: got %v, want item 3", par, err)
		}
	}
}

func TestForEachSerialStopsEarly(t *testing.T) {
	ran := 0
	boom := errors.New("boom")
	err := ForEach(10, 1, func(i int) error {
		ran++
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || ran != 3 {
		t.Fatalf("err=%v ran=%d, want boom after 3 items", err, ran)
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachCtxStopsWhenCanceled: no item starts once the context is
// done, and the loop reports the context's error — serially from the item
// after the one that canceled, in parallel from the first item.
func TestForEachCtxStopsWhenCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	err := ForEachCtx(ctx, 8, 1, func(i int) error {
		if ran++; i == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || ran != 3 {
		t.Fatalf("par=1: err=%v after %d items, want context.Canceled after 3", err, ran)
	}
	var started atomic.Int32
	err = ForEachCtx(ctx, 8, 4, func(int) error { started.Add(1); return nil })
	if !errors.Is(err, context.Canceled) || started.Load() != 0 {
		t.Fatalf("par=4: err=%v after %d items, want context.Canceled before any", err, started.Load())
	}
}

// TestSerialLoopsAllocateNothing pins what a serial loop costs a caller
// that made its func once: nothing, with or without a context.
func TestSerialLoopsAllocateNothing(t *testing.T) {
	ctx := context.Background()
	sum := 0
	fn := func(i int) error { sum += i; return nil }
	for name, loop := range map[string]func(){
		"ForEach":    func() { ForEach(8, 1, fn) },
		"ForEachCtx": func() { ForEachCtx(ctx, 8, 1, fn) },
	} {
		if n := testing.AllocsPerRun(100, loop); n != 0 {
			t.Errorf("%s at par 1 allocates %v times a loop, want 0", name, n)
		}
	}
	if sum == 0 {
		t.Fatal("no item ran")
	}
}

func TestFlightDeduplicates(t *testing.T) {
	var f Flight[string, int]
	var calls atomic.Int32
	release := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	var sharedCount, arrived atomic.Int32
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			defer wg.Done()
			arrived.Add(1)
			v, err, shared := f.Do("k", func() (int, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("got (%d, %v)", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Let every goroutine reach Do before releasing the one real call: a
	// goroutine that has announced itself is one lock acquisition away
	// from joining the flight, and the yields give it that.
	for calls.Load() == 0 || arrived.Load() < waiters {
		runtime.Gosched()
	}
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
	if sharedCount.Load() != waiters-1 {
		t.Fatalf("shared=%d, want %d", sharedCount.Load(), waiters-1)
	}
}

// TestFlightAllocatesOncePerCall pins what a call costs when nobody
// shares it: the one record its waiters would wait on.
func TestFlightAllocatesOncePerCall(t *testing.T) {
	var f Flight[int, int]
	fn := func() (int, error) { return 1, nil }
	f.Do(0, fn) // makes the call table
	if n := testing.AllocsPerRun(100, func() { f.Do(1, fn) }); n != 1 {
		t.Fatalf("Do allocates %v times a call, want 1", n)
	}
}

func TestFlightDistinctKeysDoNotBlock(t *testing.T) {
	var f Flight[int, int]
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, _ := f.Do(i, func() (int, error) { return i * i, nil })
			if err != nil || v != i*i {
				t.Errorf("key %d: got (%d, %v)", i, v, err)
			}
		}()
	}
	wg.Wait()
}

func TestFlightSharesError(t *testing.T) {
	var f Flight[string, int]
	boom := errors.New("boom")
	_, err, _ := f.Do("k", func() (int, error) { return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	// A later call retries (nothing is cached across landed flights).
	v, err, _ := f.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry got (%d, %v)", v, err)
	}
}
