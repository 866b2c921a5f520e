package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"remos/internal/collector"
	"remos/internal/collector/snmpcoll"
	"remos/internal/modeler"
	"remos/internal/proto"
	"remos/internal/snmp"
)

// layer names a seam the harness interposes on. A span's layer is the
// package the wrapped call enters.
type layer int

const (
	layerClient layer = iota // the caller's own view: one span per query
	layerModeler
	layerFederation
	layerQcache
	layerMaster
	layerSnmpcoll
	layerSnmp  // one snmp.Transport round trip
	layerFetch // one federation Router fetch from a domain master
	layerApply // one snapshot.Store.Apply by the churn writer
	numLayers
)

var layerNames = [numLayers]string{
	"client", "modeler", "federation", "qcache", "master", "snmpcoll", "snmp", "fetch", "apply",
}

// parentLayer is the static nesting of the seams: which layer's open span
// a new span hangs under. The load is one closed-loop caller, so at most
// one query is in flight and the open span of the parent layer is the
// cause of every span below it.
var parentLayer = [numLayers]layer{
	layerClient:     -1,
	layerModeler:    layerClient,
	layerFederation: layerClient,
	layerQcache:     layerClient,
	layerMaster:     layerQcache,
	layerSnmpcoll:   layerMaster,
	layerSnmp:       layerSnmpcoll,
	layerFetch:      layerFederation,
	layerApply:      -1,
}

// span is one timed call through a seam. Start and End are nanoseconds
// since the tracer was switched on; Parent indexes the span that caused
// this one (-1 for a root); Query numbers the caller's query (-1 for
// background work such as the churn writer).
type span struct {
	Layer  layer
	Start  int64
	End    int64
	Parent int32
	Query  int32
	// Bridge marks a transport span addressed to a switch — the Bridge
	// Collector's share of the exchanges.
	Bridge bool
	// RTT is the modelled round-trip time a transport span returned.
	RTT int64
}

// tracer records spans in memory while on, and always keeps the counts
// the end-to-end metrics need (SNMP exchanges, collector walks). It is
// shared by every interposer of one rig.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	query atomic.Int32
	open  [numLayers]atomic.Int32

	mu    sync.Mutex
	spans []span

	// Counters, live whether or not spans are recorded.
	exchanges    atomic.Int64 // snmp.Transport round trips
	collectCalls atomic.Int64 // calls reaching the collector behind a snapshot-backed answerer
}

func newTracer() *tracer {
	t := &tracer{}
	t.query.Store(-1)
	for i := range t.open {
		t.open[i].Store(-1)
	}
	return t
}

// start switches span recording on with an empty buffer.
func (t *tracer) start() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
	t.t0 = time.Now()
	t.query.Store(-1)
	t.on.Store(true)
}

// stop switches recording off and hands the recorded spans over.
func (t *tracer) stop() []span {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// begin opens a span on l and returns its index, or -1 when tracing is
// off.
func (t *tracer) begin(l layer) int32 {
	if !t.on.Load() {
		return -1
	}
	parent := int32(-1)
	if pl := parentLayer[l]; pl >= 0 {
		parent = t.open[pl].Load()
	}
	query := t.query.Load()
	if l == layerApply {
		query = -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{Layer: l, Start: now, End: now, Parent: parent, Query: query})
	t.mu.Unlock()
	t.open[l].Store(idx)
	return idx
}

// end closes the span begin returned.
func (t *tracer) end(idx int32) { t.endRoundTrip(idx, false, 0) }

// endRoundTrip closes a transport span, noting whom it addressed and the
// modelled round-trip time it returned.
func (t *tracer) endRoundTrip(idx int32, bridge bool, rtt time.Duration) {
	if idx < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	if int(idx) < len(t.spans) {
		sp := &t.spans[idx]
		sp.End, sp.Bridge, sp.RTT = now, bridge, int64(rtt)
		t.open[sp.Layer].CompareAndSwap(idx, -1)
	}
	t.mu.Unlock()
}

// tracedTransport interposes on snmp.Transport: every round trip is
// counted, and timed while tracing is on. It deliberately does not
// implement snmp.SessionTransport — the rigs run lock-step clients.
type tracedTransport struct {
	inner    snmp.Transport
	tr       *tracer
	switches map[string]bool // management addresses of bridges

	mu       sync.Mutex
	req, rsp []byte // one captured exchange, for the codec probe
}

func (t *tracedTransport) RoundTrip(addr string, req []byte) ([]byte, time.Duration, error) {
	t.tr.exchanges.Add(1)
	idx := t.tr.begin(layerSnmp)
	resp, rtt, err := t.inner.RoundTrip(addr, req)
	if idx >= 0 {
		t.tr.endRoundTrip(idx, t.switches[addr], rtt)
		// Keep the widest exchange seen: a table walk's GetBulk reply is
		// the representative codec load, not a one-varbind Get.
		t.mu.Lock()
		if err == nil && len(resp) > len(t.rsp) {
			t.req = append(t.req[:0], req...)
			t.rsp = append(t.rsp[:0], resp...)
		}
		t.mu.Unlock()
	}
	return resp, rtt, err
}

// tracedCollector interposes on collector.Interface at layer l.
type tracedCollector struct {
	inner collector.Interface
	tr    *tracer
	l     layer
	// behindSnapshot marks a collector that sits behind a snapshot plane
	// which should be answering instead: every call is counted as a walk.
	behindSnapshot bool
}

func (c *tracedCollector) Name() string { return c.inner.Name() }

func (c *tracedCollector) Collect(q collector.Query) (*collector.Result, error) {
	if c.behindSnapshot {
		c.tr.collectCalls.Add(1)
	}
	idx := c.tr.begin(c.l)
	res, err := c.inner.Collect(q)
	c.tr.end(idx)
	return res, err
}

// tracedSNMPCollector interposes on a site's SNMP Collector, calling
// CollectWithStats so the per-query request count the collector meters
// itself lands on the ledger beside the transport's own count.
type tracedSNMPCollector struct {
	inner *snmpcoll.Collector
	tr    *tracer

	mu       sync.Mutex
	requests int64
	calls    int64
}

func (c *tracedSNMPCollector) Name() string { return c.inner.Name() }

func (c *tracedSNMPCollector) Collect(q collector.Query) (*collector.Result, error) {
	idx := c.tr.begin(layerSnmpcoll)
	res, st, err := c.inner.CollectWithStats(q)
	c.tr.end(idx)
	if idx >= 0 {
		c.mu.Lock()
		c.requests += int64(st.Requests)
		c.calls++
		c.mu.Unlock()
	}
	return res, err
}

// takeStats returns and resets the metered request and call counts.
func (c *tracedSNMPCollector) takeStats() (requests, calls int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	requests, calls = c.requests, c.calls
	c.requests, c.calls = 0, 0
	return
}

// tracedAnswerer interposes on proto.FlowAnswerer at layer l (the
// Modeler or the federation Router).
type tracedAnswerer struct {
	inner proto.FlowAnswerer
	tr    *tracer
	l     layer
}

func (a *tracedAnswerer) GetFlowsContext(ctx context.Context, flows []modeler.Flow, opt modeler.FlowOptions) ([]modeler.FlowInfo, error) {
	idx := a.tr.begin(a.l)
	out, err := a.inner.GetFlowsContext(ctx, flows, opt)
	a.tr.end(idx)
	return out, err
}

// covered returns the length of the union of the intervals, each clipped
// to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	end := lo
	for _, v := range iv {
		s, e := v[0], v[1]
		if s < end {
			s = end
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// selfTimes computes, per span, its duration minus the part of that
// interval its child spans cover.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(children[int32(i)], s.Start, s.End)
	}
	return self
}

// traceFile is the on-disk form of a traced round.
type traceFile struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Layers    []string    `json:"layers"`
	Truncated bool        `json:"truncated"`
	Spans     []traceSpan `json:"spans"`
}

type traceSpan struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Query   int32  `json:"query"`
	Bridge  bool   `json:"bridge,omitempty"`
	RTTNs   int64  `json:"modelled_rtt_ns,omitempty"`
}

// maxTraceSpans bounds the spans written to disk: the warm workloads
// record several hundred thousand per round, and the file is for reading
// one query's ladder, not for re-deriving the medians.
const maxTraceSpans = 20000

func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	tf := traceFile{Workload: workload, Seed: seed, Layers: layerNames[:]}
	if len(spans) > maxTraceSpans {
		spans = spans[:maxTraceSpans]
		tf.Truncated = true
	}
	tf.Spans = make([]traceSpan, len(spans))
	for i, s := range spans {
		parent := s.Parent
		if int(parent) >= len(spans) {
			parent = -1
		}
		tf.Spans[i] = traceSpan{
			Name: layerNames[s.Layer], StartNs: s.Start, EndNs: s.End,
			Parent: parent, Query: s.Query, Bridge: s.Bridge, RTTNs: s.RTT,
		}
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
