package admission

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"remos/internal/obs"
	"remos/internal/rerr"
	"remos/internal/sim"
)

func newTestController(t *testing.T, cfg Config) (*Controller, *sim.Sim) {
	t.Helper()
	s := sim.NewSim()
	cfg.Sched = s
	c := New(cfg)
	t.Cleanup(c.Close)
	return c, s
}

func mustAdmit(t *testing.T, c *Controller, ten Tenant, tier Tier) func() {
	t.Helper()
	release, err := c.Admit(context.Background(), ten, tier)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	return release
}

func TestAuthenticate(t *testing.T) {
	c, _ := newTestController(t, Config{
		Tenants: map[string]TenantConfig{
			"ops":  {Key: "s3cret", Limits: Limits{Rate: 10}},
			"open": {Limits: Limits{Rate: 1}},
		},
	})
	if _, err := c.Authenticate("ops", "s3cret"); err != nil {
		t.Fatalf("good key rejected: %v", err)
	}
	if _, err := c.Authenticate("ops", "wrong"); !errors.Is(err, rerr.ErrUnauthenticated) {
		t.Fatalf("bad key error = %v", err)
	}
	if _, err := c.Authenticate("nobody", "x"); !errors.Is(err, rerr.ErrUnauthenticated) {
		t.Fatalf("unknown tenant error = %v", err)
	}
	if _, err := c.Authenticate("open", ""); err != nil {
		t.Fatalf("keyless tenant rejected: %v", err)
	}
	anon, err := c.Authenticate("", "")
	if err != nil {
		t.Fatalf("anonymous rejected: %v", err)
	}
	if anon.ID() != AnonymousTenant {
		t.Fatalf("anonymous id = %q", anon.ID())
	}
	if _, err := c.Authenticate("", "with-key"); !errors.Is(err, rerr.ErrUnauthenticated) {
		t.Fatalf("anonymous with key error = %v", err)
	}
}

func TestNilControllerAdmitsEverything(t *testing.T) {
	var c *Controller
	ten, err := c.Authenticate("anyone", "anykey")
	if err != nil {
		t.Fatalf("nil controller rejected auth: %v", err)
	}
	release, err := c.Admit(context.Background(), ten, Batch)
	if err != nil {
		t.Fatalf("nil controller shed: %v", err)
	}
	release()
	wrel, err := c.AcquireWatch(ten)
	if err != nil {
		t.Fatalf("nil controller watch quota: %v", err)
	}
	wrel()
	if got := c.Snapshot(); got != nil {
		t.Fatalf("nil controller snapshot = %v", got)
	}
	c.Close()
}

// TestTokenBucketDeterminism drives the bucket on the sim clock and
// asserts the exact grant/shed sequence and retry-after hints.
func TestTokenBucketDeterminism(t *testing.T) {
	c, s := newTestController(t, Config{
		Tenants: map[string]TenantConfig{
			"metered": {Limits: Limits{Rate: 2, Burst: 2}},
		},
		MaxQueueWait: 100 * time.Millisecond,
	})
	ten, err := c.Authenticate("metered", "")
	if err != nil {
		t.Fatal(err)
	}

	// Burst of 2 grants immediately.
	mustAdmit(t, c, ten, Interactive)()
	mustAdmit(t, c, ten, Interactive)()

	// Third query: bucket empty, next token in 500ms > 100ms queue
	// bound — shed now with the token-arrival hint.
	_, err = c.Admit(context.Background(), ten, Interactive)
	if !errors.Is(err, rerr.ErrOverloaded) {
		t.Fatalf("expected overload, got %v", err)
	}
	if d, ok := rerr.RetryAfter(err); !ok || d != 500*time.Millisecond {
		t.Fatalf("retry-after = %v, %t; want 500ms", d, ok)
	}

	// 250ms later: half a token back, still infeasible, hint shrinks.
	s.RunFor(250 * time.Millisecond)
	_, err = c.Admit(context.Background(), ten, Interactive)
	if d, ok := rerr.RetryAfter(err); !ok || d != 250*time.Millisecond {
		t.Fatalf("retry-after after partial refill = %v, %t; want 250ms", d, ok)
	}

	// Refill a full token: admitted again, deterministically.
	s.RunFor(250 * time.Millisecond)
	mustAdmit(t, c, ten, Interactive)()

	// Idle for ages: bucket caps at burst, so only 2 grants follow.
	s.RunFor(time.Hour)
	mustAdmit(t, c, ten, Interactive)()
	mustAdmit(t, c, ten, Interactive)()
	if _, err := c.Admit(context.Background(), ten, Interactive); !errors.Is(err, rerr.ErrOverloaded) {
		t.Fatalf("burst not capped: %v", err)
	}
}

// TestQueueGrantsOnTokenArrival parks a waiter whose token arrives
// within the queue bound and advances the sim clock to release it.
func TestQueueGrantsOnTokenArrival(t *testing.T) {
	c, s := newTestController(t, Config{
		Tenants: map[string]TenantConfig{
			"metered": {Limits: Limits{Rate: 10, Burst: 1}},
		},
		MaxQueueWait: time.Second,
	})
	ten, _ := c.Authenticate("metered", "")
	mustAdmit(t, c, ten, Interactive)() // drain the bucket

	type result struct {
		release func()
		err     error
	}
	done := make(chan result, 1)
	go func() {
		rel, err := c.Admit(context.Background(), ten, Interactive)
		done <- result{rel, err}
	}()

	// Wait for the waiter to queue, then advance past the 100ms token.
	waitFor(t, func() bool { return queueDepth(c) == 1 })
	s.RunFor(100 * time.Millisecond)
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("queued admit failed: %v", r.err)
		}
		r.release()
	case <-time.After(5 * time.Second):
		t.Fatal("queued admit never granted")
	}
	st := findStatus(t, c, "metered")
	if st.QueuedTotal != 1 || st.Admitted != 2 || st.Shed != 0 {
		t.Fatalf("counters = %+v", st)
	}
}

// TestPriorityOrder queues a batch waiter then an interactive one and
// asserts the interactive waiter takes the next token.
func TestPriorityOrder(t *testing.T) {
	c, s := newTestController(t, Config{
		Tenants: map[string]TenantConfig{
			"metered": {Limits: Limits{Rate: 10, Burst: 1}},
		},
		MaxQueueWait: time.Second,
	})
	ten, _ := c.Authenticate("metered", "")
	mustAdmit(t, c, ten, Interactive)()

	order := make(chan string, 2)
	var wg sync.WaitGroup
	start := func(name string, tier Tier) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := c.Admit(context.Background(), ten, tier)
			if err != nil {
				t.Errorf("%s shed: %v", name, err)
				return
			}
			order <- name
			rel()
		}()
	}
	start("batch", Batch)
	waitFor(t, func() bool { return queueDepth(c) == 1 })
	start("interactive", Interactive)
	waitFor(t, func() bool { return queueDepth(c) == 2 })

	// One token at +100ms goes to the interactive waiter; the next at
	// +200ms to the batch one.
	s.RunFor(100 * time.Millisecond)
	if got := <-order; got != "interactive" {
		t.Fatalf("first grant = %s, want interactive", got)
	}
	s.RunFor(100 * time.Millisecond)
	if got := <-order; got != "batch" {
		t.Fatalf("second grant = %s, want batch", got)
	}
	wg.Wait()
}

// TestQueuedWaiterShedsAtDeadline parks a waiter that cannot get a
// token before its deadline... it can (within MaxQueueWait), but the
// slot never frees, so the deadline timer sheds it.
func TestQueuedWaiterShedsAtDeadline(t *testing.T) {
	c, s := newTestController(t, Config{
		Tenants: map[string]TenantConfig{
			"capped": {Limits: Limits{MaxConcurrent: 1}},
		},
		MaxQueueWait: 200 * time.Millisecond,
	})
	ten, _ := c.Authenticate("capped", "")
	release := mustAdmit(t, c, ten, Interactive) // hold the only slot

	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(context.Background(), ten, Interactive)
		done <- err
	}()
	waitFor(t, func() bool { return queueDepth(c) == 1 })
	s.RunFor(200 * time.Millisecond)
	select {
	case err := <-done:
		if !errors.Is(err, rerr.ErrOverloaded) {
			t.Fatalf("deadline shed error = %v", err)
		}
		if !strings.Contains(err.Error(), "queue wait exceeded") {
			t.Fatalf("unexpected message: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never shed at deadline")
	}
	release()
}

// TestConcurrencyReleaseUnblocksWaiter frees a slot and expects the
// queued waiter to be granted with no clock movement at all.
func TestConcurrencyReleaseUnblocksWaiter(t *testing.T) {
	c, _ := newTestController(t, Config{
		Tenants: map[string]TenantConfig{
			"capped": {Limits: Limits{MaxConcurrent: 1}},
		},
	})
	ten, _ := c.Authenticate("capped", "")
	release := mustAdmit(t, c, ten, Interactive)

	done := make(chan error, 1)
	var rel2 func()
	go func() {
		r, err := c.Admit(context.Background(), ten, Interactive)
		rel2 = r
		done <- err
	}()
	waitFor(t, func() bool { return queueDepth(c) == 1 })
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiter not granted on release: %v", err)
		}
		rel2()
	case <-time.After(5 * time.Second):
		t.Fatal("release did not unblock the waiter")
	}
	// Double release must not corrupt the accounting.
	release()
	st := findStatus(t, c, "capped")
	if st.InFlight != 0 {
		t.Fatalf("in-flight after releases = %d", st.InFlight)
	}
}

// TestAdmitAllocationBudget pins the fast path every admitted QUERY and
// FLOWS takes, on both wires: Admit with a token and a slot free, then
// its release. The release func is the one allocation; with a sync.Once
// of its own beside it, the pair cost two. A release called again after
// a later grant took its slot must still do nothing.
func TestAdmitAllocationBudget(t *testing.T) {
	c, _ := newTestController(t, Config{
		Tenants: map[string]TenantConfig{"metered": {Limits: Limits{Rate: 1e9, MaxConcurrent: 4}}},
		Obs:     obs.New(),
	})
	ctx := context.Background()
	for _, id := range []string{"", "metered"} {
		ten, err := c.Authenticate(id, "")
		if err != nil {
			t.Fatal(err)
		}
		mustAdmit(t, c, ten, TierDefault)() // the tenant's first slot
		if n := testing.AllocsPerRun(200, func() {
			release, err := c.Admit(ctx, ten, TierDefault)
			if err != nil {
				t.Fatal(err)
			}
			release()
		}); n > 1 {
			t.Fatalf("tenant %q: Admit and release allocate %.0f times, want <= 1", ten.ID(), n)
		}
	}

	ten, _ := c.Authenticate("metered", "")
	first := mustAdmit(t, c, ten, Interactive)
	first()
	second := mustAdmit(t, c, ten, Interactive) // holds the slot first held
	first()
	if st := findStatus(t, c, "metered"); st.InFlight != 1 {
		t.Fatalf("in-flight after a stale release = %d, want 1", st.InFlight)
	}
	second()
	if st := findStatus(t, c, "metered"); st.InFlight != 0 {
		t.Fatalf("in-flight after every release = %d, want 0", st.InFlight)
	}
}

func TestQueueOverflowSheds(t *testing.T) {
	c, _ := newTestController(t, Config{
		Tenants: map[string]TenantConfig{
			"capped": {Limits: Limits{MaxConcurrent: 1, MaxQueued: 2}},
		},
	})
	ten, _ := c.Authenticate("capped", "")
	release := mustAdmit(t, c, ten, Interactive)
	for i := 0; i < 2; i++ {
		go c.Admit(context.Background(), ten, Interactive) //nolint:errcheck
	}
	waitFor(t, func() bool { return queueDepth(c) == 2 })
	_, err := c.Admit(context.Background(), ten, Interactive)
	if !errors.Is(err, rerr.ErrOverloaded) || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("overflow error = %v", err)
	}
	release()
}

func TestContextCancelAbandonsWait(t *testing.T) {
	c, _ := newTestController(t, Config{
		Tenants: map[string]TenantConfig{
			"capped": {Limits: Limits{MaxConcurrent: 1}},
		},
	})
	ten, _ := c.Authenticate("capped", "")
	release := mustAdmit(t, c, ten, Interactive)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, ten, Interactive)
		done <- err
	}()
	waitFor(t, func() bool { return queueDepth(c) == 1 })
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel error = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not abandon the wait")
	}
	if queueDepth(c) != 0 {
		t.Fatal("abandoned waiter left in the queue")
	}
	release()
	// The freed slot must still be grantable after the abandoned wait.
	mustAdmit(t, c, ten, Interactive)()
}

func TestContextDeadlineTightensQueueBound(t *testing.T) {
	c, s := newTestController(t, Config{
		Tenants: map[string]TenantConfig{
			// 1 token/s, bucket empty after the first grant: the next
			// token is a full second away.
			"slow": {Limits: Limits{Rate: 1, Burst: 1}},
		},
		MaxQueueWait: 2 * time.Second,
	})
	ten, _ := c.Authenticate("slow", "")
	mustAdmit(t, c, ten, Interactive)()

	// A context with 100ms left (on the injected clock — deadlines are
	// compared against sched.Now) cannot wait out the 1s token: shed
	// immediately rather than queued to die.
	ctx, cancel := context.WithDeadline(context.Background(), s.Now().Add(100*time.Millisecond))
	defer cancel()
	_, err := c.Admit(ctx, ten, Interactive)
	if !errors.Is(err, rerr.ErrOverloaded) {
		t.Fatalf("infeasible wait error = %v", err)
	}
	if d, ok := rerr.RetryAfter(err); !ok || d != time.Second {
		t.Fatalf("retry-after = %v, %t; want 1s", d, ok)
	}
}

func TestWatchQuota(t *testing.T) {
	c, _ := newTestController(t, Config{
		Tenants: map[string]TenantConfig{
			"w": {Limits: Limits{MaxWatches: 2}},
		},
	})
	ten, _ := c.Authenticate("w", "")
	rel1, err := c.AcquireWatch(ten)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := c.AcquireWatch(ten)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AcquireWatch(ten); !errors.Is(err, rerr.ErrOverloaded) {
		t.Fatalf("quota not enforced: %v", err)
	}
	rel1()
	rel1() // idempotent: must not free a second slot
	rel3, err := c.AcquireWatch(ten)
	if err != nil {
		t.Fatalf("freed slot not reusable: %v", err)
	}
	if _, err := c.AcquireWatch(ten); !errors.Is(err, rerr.ErrOverloaded) {
		t.Fatal("double release leaked a watch slot")
	}
	rel2()
	rel3()
	if st := findStatus(t, c, "w"); st.Watches != 0 {
		t.Fatalf("watches after teardown = %d", st.Watches)
	}
}

func TestTenantsAreIsolated(t *testing.T) {
	c, _ := newTestController(t, Config{
		Tenants: map[string]TenantConfig{
			"starved": {Limits: Limits{Rate: 1, Burst: 1}},
			"healthy": {Limits: Limits{Rate: 1000, Burst: 10}},
		},
	})
	starved, _ := c.Authenticate("starved", "")
	healthy, _ := c.Authenticate("healthy", "")
	mustAdmit(t, c, starved, Interactive)()
	if _, err := c.Admit(context.Background(), starved, Interactive); !errors.Is(err, rerr.ErrOverloaded) {
		t.Fatalf("starved tenant not shed: %v", err)
	}
	// The other tenant's bucket is untouched by the neighbor's sheds.
	for i := 0; i < 10; i++ {
		mustAdmit(t, c, healthy, Interactive)()
	}
}

func TestTierParsingAndDefaults(t *testing.T) {
	for _, tc := range []struct {
		in   string
		tier Tier
		ok   bool
	}{
		{"", TierDefault, true},
		{"interactive", Interactive, true},
		{"batch", Batch, true},
		{"urgent", TierDefault, false},
	} {
		tier, ok := ParseTier(tc.in)
		if tier != tc.tier || ok != tc.ok {
			t.Errorf("ParseTier(%q) = %v, %t", tc.in, tier, ok)
		}
	}
	c, _ := newTestController(t, Config{
		Tenants: map[string]TenantConfig{
			"bulk": {Limits: Limits{Tier: Batch}},
		},
	})
	ten, _ := c.Authenticate("bulk", "")
	if got := ten.DefaultTier(); got != Batch {
		t.Fatalf("configured default tier = %v", got)
	}
	anon, _ := c.Authenticate("", "")
	if got := anon.DefaultTier(); got != Interactive {
		t.Fatalf("anonymous default tier = %v", got)
	}
	if Interactive.String() != "interactive" || Batch.String() != "batch" || TierDefault.String() != "default" {
		t.Fatal("tier strings drifted from the wire grammar")
	}
}

func TestSnapshotAndMetrics(t *testing.T) {
	reg := obs.New()
	s := sim.NewSim()
	c := New(Config{
		Tenants: map[string]TenantConfig{
			"m": {Limits: Limits{Rate: 2, Burst: 2, MaxConcurrent: 4, MaxWatches: 8}},
		},
		Sched:        s,
		Obs:          reg,
		MaxQueueWait: 50 * time.Millisecond,
	})
	defer c.Close()
	ten, _ := c.Authenticate("m", "")
	release := mustAdmit(t, c, ten, Interactive)
	mustAdmit(t, c, ten, Interactive)()
	c.Admit(context.Background(), ten, Interactive) //nolint:errcheck — expected shed

	st := findStatus(t, c, "m")
	if st.Admitted != 2 || st.Shed != 1 || st.InFlight != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.Tokens != 0 {
		t.Fatalf("tokens = %v, want 0 after draining the burst", st.Tokens)
	}
	release()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`remos_admission_admitted_total{tenant="m"} 2`,
		`remos_admission_shed_total{tenant="m"} 1`,
		"remos_admission_queue_depth 0",
		"remos_admission_tenants 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestCloseShedsWaiters(t *testing.T) {
	c, _ := newTestController(t, Config{
		Tenants: map[string]TenantConfig{
			"capped": {Limits: Limits{MaxConcurrent: 1}},
		},
	})
	ten, _ := c.Authenticate("capped", "")
	release := mustAdmit(t, c, ten, Interactive)
	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(context.Background(), ten, Interactive)
		done <- err
	}()
	waitFor(t, func() bool { return queueDepth(c) == 1 })
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, rerr.ErrOverloaded) {
			t.Fatalf("shutdown shed error = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the waiter parked")
	}
	release() // must stay safe after Close
}

// queueDepth reads the live queue depth through the controller lock.
func queueDepth(c *Controller) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, q := range c.queues {
		n += len(q)
	}
	return n
}

func findStatus(t *testing.T, c *Controller, id string) TenantStatus {
	t.Helper()
	for _, st := range c.Snapshot() {
		if st.Tenant == id {
			return st
		}
	}
	t.Fatalf("tenant %q not in snapshot", id)
	return TenantStatus{}
}

// waitFor polls cond: the test goroutine synchronizes with Admit
// goroutines reaching the queue without advancing the sim clock.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
