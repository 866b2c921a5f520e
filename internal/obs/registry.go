// Package obs is the Remos observability subsystem: a dependency-free
// atomic metrics registry rendered in the Prometheus text exposition
// format, and per-query traces (span-style stage timings) kept in a ring
// buffer for the /debug/queries endpoint. Every type is nil-safe — an
// uninstrumented deployment passes nil registries and pays a pointer
// test per metric site, nothing more.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram bounds, in seconds,
// spanning sub-millisecond SNMP exchanges to multi-second cold queries.
var DefBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histStripes is the number of independent cells an observation can land
// in (power of two). Striping keeps concurrent Observe calls off each
// other's cache lines: the sum in particular is a compare-and-swap loop
// over a float64, and a single shared cell degrades collapse-style under
// the request-histogram fan-in of many serving goroutines.
const histStripes = 8

// histStripe is one cell: per-bucket counters plus a running sum. The
// pad spaces the hot sum fields a cache line apart.
type histStripe struct {
	counts []atomic.Int64 // one per bound, plus +Inf at the end
	sum    Gauge
	_      [4]uint64
}

// Histogram counts observations into cumulative buckets, with a running
// sum — the Prometheus histogram shape. Storage is striped; rendering
// and the accessors aggregate.
type Histogram struct {
	bounds  []float64
	stripes []histStripe
	count   atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Record into the first bucket whose bound holds v; rendering
	// accumulates, so storage is per-bucket. The observation sequence
	// number spreads concurrent observers across stripes.
	i := sort.SearchFloat64s(h.bounds, v)
	n := h.count.Add(1)
	st := &h.stripes[uint64(n)&(histStripes-1)]
	st.counts[i].Add(1)
	st.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// bucketCount aggregates one bucket's (non-cumulative) count across
// stripes; index len(bounds) is the +Inf bucket.
func (h *Histogram) bucketCount(i int) int64 {
	var n int64
	for s := range h.stripes {
		n += h.stripes[s].counts[i].Load()
	}
	return n
}

// sumValue aggregates the running sum across stripes.
func (h *Histogram) sumValue() float64 {
	var v float64
	for s := range h.stripes {
		v += h.stripes[s].sum.Value()
	}
	return v
}

// series is one rendered time series: a metric instance under a family.
type series struct {
	labels string // rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family groups the series sharing a metric name, with its type and help
// line.
type family struct {
	name  string
	typ   string // "counter" | "gauge" | "histogram"
	help  string
	order []string
	byLbl map[string]*series
}

// Registry holds metrics by family and renders them in the Prometheus
// text format. The zero value is not usable; call New. A nil *Registry
// is a valid no-op sink: every constructor returns nil metrics whose
// methods do nothing.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels builds the {k="v"} suffix from alternating key/value
// arguments.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// subsystems are the known second tokens of a metric name
// (remos_<subsystem>_...): one per component that registers metrics.
var subsystems = map[string]bool{
	"admission": true, "bridge": true, "directory": true, "federation": true,
	"master": true, "modeler": true, "qcache": true, "request": true,
	"requests": true, "runtime": true, "sched": true, "snapshot": true,
	"snmp": true, "snmpcoll": true, "watch": true,
}

// checkName enforces the naming grammar on one registration: a
// snake_case name under remos_<subsystem>_ with a known subsystem,
// counters ending in _total, histograms carrying a unit suffix
// (_seconds or _bytes), gauges not ending in _total. It panics naming
// the metric, so a bad name fails the first test that builds its
// component, and it allocates nothing on the accepted path.
func checkName(name, typ string) {
	if msg := nameProblem(name, typ); msg != "" {
		panic(fmt.Sprintf("obs: %s %q %s", typ, name, msg))
	}
}

// nameProblem says what is wrong with a metric name of type typ, or ""
// when it is well formed.
func nameProblem(name, typ string) string {
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9' && i > 0:
		case c == '_' && i > 0 && i < len(name)-1 && name[i-1] != '_':
		default:
			return "is not snake_case"
		}
	}
	rest, ok := strings.CutPrefix(name, "remos_")
	if !ok {
		return "is outside the remos_ namespace"
	}
	sub, _, ok := strings.Cut(rest, "_")
	if !ok || !subsystems[sub] {
		return "has no known subsystem token (remos_<subsystem>_...)"
	}
	switch {
	case typ == "counter" && !strings.HasSuffix(name, "_total"):
		return "must end in _total"
	case typ == "histogram" && !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes"):
		return "must carry a unit suffix (_seconds or _bytes)"
	case typ == "gauge" && strings.HasSuffix(name, "_total"):
		return "must not end in _total"
	}
	return ""
}

// lookup finds or creates the series for (name, labels), enforcing one
// type per family and one help text: an empty help neither sets nor
// checks the family's, so a reader can fetch a family by name alone.
func (r *Registry) lookup(name, typ, help string, kv []string) *series {
	lbl := renderLabels(kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, typ: typ, byLbl: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	switch {
	case help == "":
	case f.help == "":
		f.help = help
	case f.help != help:
		panic(fmt.Sprintf("obs: metric %s registered with help %q and %q", name, f.help, help))
	}
	s := f.byLbl[lbl]
	if s == nil {
		s = &series{labels: lbl}
		f.byLbl[lbl] = s
		f.order = append(f.order, lbl)
	}
	return s
}

// Counter returns the counter for name and optional label pairs,
// creating it on first use. Repeated calls with the same name and labels
// return the same counter. Nil registries return a nil (no-op) counter.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	checkName(name, "counter")
	if r == nil {
		return nil
	}
	s := r.lookup(name, "counter", help, kv)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge for name and optional label pairs.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	checkName(name, "gauge")
	if r == nil {
		return nil
	}
	s := r.lookup(name, "gauge", help, kv)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers a gauge whose value is computed at render time —
// for quantities another component already tracks (cache sizes,
// last-poll ages).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, kv ...string) {
	checkName(name, "gauge")
	if r == nil {
		return
	}
	s := r.lookup(name, "gauge", help, kv)
	s.gf = fn
}

// Histogram returns the histogram for name with the given bucket bounds
// (nil selects DefBuckets). The bounds of the first registration win.
func (r *Registry) Histogram(name, help string, bounds []float64, kv ...string) *Histogram {
	checkName(name, "histogram")
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	s := r.lookup(name, "histogram", help, kv)
	if s.h == nil {
		h := &Histogram{bounds: bounds, stripes: make([]histStripe, histStripes)}
		for i := range h.stripes {
			h.stripes[i].counts = make([]atomic.Int64, len(bounds)+1)
		}
		s.h = h
	}
	return s.h
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), families in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, n := range r.order {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		// byLbl is only appended to, and series pointers are immutable
		// once created, so rendering without the registry lock only
		// needs a snapshot of the label order.
		r.mu.Lock()
		lbls := append([]string(nil), f.order...)
		ss := make([]*series, len(lbls))
		for i, l := range lbls {
			ss[i] = f.byLbl[l]
		}
		r.mu.Unlock()
		for _, s := range ss {
			switch {
			case s.c != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case s.gf != nil:
				fmt.Fprintf(&b, "%s%s %g\n", f.name, s.labels, s.gf())
			case s.g != nil:
				fmt.Fprintf(&b, "%s%s %g\n", f.name, s.labels, s.g.Value())
			case s.h != nil:
				writeHistogram(&b, f.name, s)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative buckets, sum,
// count. Label sets merge the series labels with the le bucket label.
func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.h
	inner := strings.TrimSuffix(strings.TrimPrefix(s.labels, "{"), "}")
	bucketLabels := func(le string) string {
		if inner == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return fmt.Sprintf("{%s,le=%q}", inner, le)
	}
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.bucketCount(i)
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketLabels(fmt.Sprintf("%g", bound)), cum)
	}
	cum += h.bucketCount(len(h.bounds))
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketLabels("+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %g\n", name, s.labels, h.sumValue())
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, h.count.Load())
}
