package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Trace records one query's passage through the system as a flat list of
// spans — parse, cache lookup, master fan-out, per-collector exchanges,
// prediction, merge. A trace travels in the query's context (see
// NewContext), so any layer can attach spans without new parameters.
// All methods are safe for concurrent use (fan-out stages span
// concurrently) and nil-safe (no trace in the context costs nothing).
type Trace struct {
	id    uint64
	kind  string
	begin time.Time
	now   func() time.Time

	mu    sync.Mutex
	spans []SpanRecord
	attrs string
	err   string
	done  time.Duration
}

// SpanRecord is one completed (or still-open) stage of a trace.
type SpanRecord struct {
	Name   string        `json:"name"`
	Offset time.Duration `json:"offset_ns"` // since trace begin
	Dur    time.Duration `json:"dur_ns"`
	Detail string        `json:"detail,omitempty"`
}

var traceID atomic.Uint64

// NewTrace starts a trace for one query. kind names where it was opened
// (a protocol server's wire protocol, "ascii" or "xml"), attrs is
// free-form detail (the host set).
func NewTrace(kind, attrs string) *Trace {
	return NewTraceAt(kind, attrs, nil)
}

// NewTraceAt is NewTrace with an explicit clock (nil means time.Now),
// for deployments running over simulated time.
func NewTraceAt(kind, attrs string, now func() time.Time) *Trace {
	if now == nil {
		now = time.Now
	}
	return &Trace{
		id:    traceID.Add(1),
		kind:  kind,
		attrs: attrs,
		begin: now(),
		now:   now,
	}
}

// Span is an open stage; End completes it.
type Span struct {
	t     *Trace
	idx   int
	start time.Time
}

// Start opens a named span. Nil traces return a nil span; End on a nil
// span is a no-op, so call sites need no guards.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	start := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, SpanRecord{Name: name, Offset: start.Sub(t.begin), Dur: -1})
	idx := len(t.spans) - 1
	t.mu.Unlock()
	return &Span{t: t, idx: idx, start: start}
}

// End completes the span.
func (s *Span) End() { s.EndDetail("") }

// EndDetail completes the span with free-form detail (e.g. "12 exchanges,
// rtt 38ms" or "hit").
func (s *Span) EndDetail(detail string) {
	if s == nil {
		return
	}
	d := s.t.now().Sub(s.start)
	s.t.mu.Lock()
	s.t.spans[s.idx].Dur = d
	if detail != "" {
		s.t.spans[s.idx].Detail = detail
	}
	s.t.mu.Unlock()
}

// Event records an instantaneous annotation (zero-duration span).
func (t *Trace) Event(name, detail string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, SpanRecord{
		Name: name, Offset: t.now().Sub(t.begin), Detail: detail,
	})
	t.mu.Unlock()
}

// SetErr records the query's failure on the trace.
func (t *Trace) SetErr(err error) {
	if t == nil || err == nil {
		return
	}
	t.mu.Lock()
	t.err = err.Error()
	t.mu.Unlock()
}

// Finish stamps the total duration. Idempotent; the first call wins.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	d := t.now().Sub(t.begin)
	t.mu.Lock()
	if t.done == 0 {
		t.done = d
	}
	t.mu.Unlock()
}

// TraceRecord is an immutable snapshot of a finished trace, the shape
// /debug/queries serves.
type TraceRecord struct {
	ID    uint64        `json:"id"`
	Kind  string        `json:"kind"`
	Attrs string        `json:"attrs,omitempty"`
	Begin time.Time     `json:"begin"`
	Dur   time.Duration `json:"dur_ns"`
	Slow  bool          `json:"slow"`
	Err   string        `json:"err,omitempty"`
	Spans []SpanRecord  `json:"spans"`
}

// snapshot copies the trace under its lock.
func (t *Trace) snapshot(slowAfter time.Duration) TraceRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	dur := t.done
	if dur == 0 {
		dur = t.now().Sub(t.begin)
	}
	return TraceRecord{
		ID:    t.id,
		Kind:  t.kind,
		Attrs: t.attrs,
		Begin: t.begin,
		Dur:   dur,
		Slow:  slowAfter > 0 && dur >= slowAfter,
		Err:   t.err,
		Spans: append([]SpanRecord(nil), t.spans...),
	}
}

// Ring keeps the most recent N finished traces for /debug/queries, each
// flagged slow when its total duration crosses the threshold.
type Ring struct {
	mu        sync.Mutex
	buf       []TraceRecord
	next      int
	full      bool
	slowAfter time.Duration
	slow      int64
}

// NewRing creates a ring holding up to n traces (default 128); queries
// slower than slowAfter are flagged (0 disables flagging).
func NewRing(n int, slowAfter time.Duration) *Ring {
	if n <= 0 {
		n = 128
	}
	return &Ring{buf: make([]TraceRecord, n), slowAfter: slowAfter}
}

// Observe finishes the trace and stores its snapshot. Nil rings and nil
// traces are no-ops.
func (r *Ring) Observe(t *Trace) {
	if r == nil || t == nil {
		return
	}
	t.Finish()
	rec := t.snapshot(r.slowAfter)
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
	if rec.Slow {
		r.slow++
	}
	r.mu.Unlock()
}

// SlowCount reports how many observed traces crossed the slow threshold.
func (r *Ring) SlowCount() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.slow
}

// Snapshot returns the stored traces, most recent first.
func (r *Ring) Snapshot() []TraceRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	total := n
	if r.full {
		total = len(r.buf)
	}
	out := make([]TraceRecord, 0, total)
	for i := 0; i < total; i++ {
		idx := (n - 1 - i + len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}

type ctxKey struct{}

// NewContext attaches a trace to a context; every instrumented layer
// below will add its spans to it.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil — and nil is fine:
// every Trace method accepts a nil receiver.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
