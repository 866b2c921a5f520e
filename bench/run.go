package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"remos/internal/collector/qcache"
	"remos/internal/rerr"
)

// rig is one workload's system under test, booted and warm, with the
// seed's query mix bound into its closures. The driver sees only these
// hooks; everything below them is the packages' own code.
type rig struct {
	tr *tracer
	// n is the length of the query mix; the driver cycles through it.
	n int
	// before prepares query i outside the timed call (nil when nothing is
	// needed). call issues query i and keeps its answer; check compares
	// the kept answer with the oracle after the clock has stopped.
	before func(i int)
	call   func(i int) error
	check  func(i int) error
	// protoMetric names the per-layer metric the caller-side residual
	// (client latency minus everything an interposer saw) is reported as;
	// empty for in-process callers, which have no wire.
	protoMetric string
	// probes times direct calls into the layers' public functions,
	// replaying the workload's own inputs. Called once, after the rounds.
	probes func(m map[string]float64)
	// snmpExpected says the workload is supposed to reach SNMP agents;
	// everywhere else a single exchange is a failed run.
	snmpExpected bool
	snmpColl     *tracedSNMPCollector
	cacheStats   func() qcache.Stats
	stop         func()
}

// roundStats is what one measured round yields.
type roundStats struct {
	attempted, failed, shed int
	// wall is the time the caller spent driving the workload, readings of
	// the reference clock left out. wallRef and cpu are that time and the
	// process's CPU time over it in reference time: each slice's share
	// divided by how slow the machine ran around it.
	wall, wallRef, cpu time.Duration
	lats               []time.Duration // successful queries, in reference time, sorted
	mallocs, bytes     uint64
	gcCycles           uint32
	gcPause            time.Duration
	exchanges          int64
	walks              int64
	firstErr           error
}

// slow is how slow the machine ran over the round by the reference clock:
// 1 is nominal.
func (rs *roundStats) slow() float64 { return float64(rs.wall) / float64(rs.wallRef) }

func (rs *roundStats) ok() int { return rs.attempted - rs.failed }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sliceDur is how long the caller drives the workload between two
// readings of the reference clock: short enough that the machine's speed
// has not moved much in between, long enough that the readings (about
// 1.3 ms each) cost little.
const sliceDur = 20 * time.Millisecond

// runRound drives the rig closed-loop for dur of workload time: one caller
// asks, waits for the answer, checks it, and asks again, in slices with a
// reading of the reference clock between them. A slice's wall time, CPU
// time and latencies are divided by how slow the machine ran around it,
// the mean of the readings before and after. Allocations are counted
// over the slices only, so the reference's own do not show. cursor
// carries the position in the mix from round to round so every round sees
// the whole mix.
func runRound(r *rig, dur time.Duration, cursor *int, traced bool) roundStats {
	rs := roundStats{lats: make([]time.Duration, 0, 1<<16)}
	var m0, m1 runtime.MemStats
	ex0, walks0 := r.tr.exchanges.Load(), r.tr.collectCalls.Load()
	qid := int32(0)
	var wallRef, cpuRef float64
	slow := machineSlow()
	for rs.wall < dur {
		first := len(rs.lats)
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		start := time.Now()
		for {
			i := *cursor % r.n
			*cursor++
			if r.before != nil {
				r.before(i)
			}
			span := int32(-1)
			if traced {
				r.tr.query.Store(qid)
				span = r.tr.begin(layerClient)
			}
			t0 := time.Now()
			err := r.call(i)
			t1 := time.Now()
			if traced {
				r.tr.end(span)
				qid++
			}
			rs.attempted++
			if err == nil {
				err = r.check(i)
			} else if errors.Is(err, rerr.ErrOverloaded) {
				rs.shed++
			}
			if err != nil {
				rs.failed++
				if rs.firstErr == nil {
					rs.firstErr = fmt.Errorf("query %d of the mix: %w", i, err)
				}
			} else {
				rs.lats = append(rs.lats, t1.Sub(t0))
			}
			if t1.Sub(start) >= sliceDur {
				break
			}
		}
		wall := time.Since(start)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		before := slow
		slow = machineSlow()
		by := (before + slow) / 2
		rs.wall += wall
		wallRef += float64(wall) / by
		cpuRef += float64(cpu) / by
		for i := first; i < len(rs.lats); i++ {
			rs.lats[i] = time.Duration(float64(rs.lats[i]) / by)
		}
		rs.mallocs += m1.Mallocs - m0.Mallocs
		rs.bytes += m1.TotalAlloc - m0.TotalAlloc
		rs.gcCycles += m1.NumGC - m0.NumGC
		rs.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	}
	rs.wallRef = time.Duration(wallRef)
	rs.cpu = time.Duration(cpuRef)
	rs.exchanges = r.tr.exchanges.Load() - ex0
	rs.walks = r.tr.collectCalls.Load() - walks0
	sort.Slice(rs.lats, func(i, j int) bool { return rs.lats[i] < rs.lats[j] })
	return rs
}

// quantile reads the q-quantile of a sorted sample.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEnd computes one round's end-to-end metrics, the timings in
// reference time.
func (rs *roundStats) endToEnd() map[string]float64 {
	ok := float64(rs.ok())
	if ok == 0 {
		ok = math.NaN()
	}
	return map[string]float64{
		"qps":              ok / rs.wallRef.Seconds(),
		"p50_us":           us(quantile(rs.lats, 0.50)),
		"cpu_us_per_query": us(rs.cpu) / ok,
		"allocs_per_query": float64(rs.mallocs) / ok,
		"bytes_per_query":  float64(rs.bytes) / ok,
	}
}

// runShape is how one workload run is cut into rounds.
type runShape struct {
	// setups is the least number of rig builds; setup_s is their median.
	// Building goes on, up to maxSetups, until setupBudget is spent, so a
	// rig that boots in milliseconds is sampled often enough for its
	// median to hold still.
	setups      int
	setupBudget time.Duration
	// warmup is driven before the first measured round and not timed:
	// the first second after a build is consistently the slowest (heap
	// and socket buffers still growing). Its answers are still checked.
	warmup   time.Duration
	rounds   int           // untraced measured rounds
	roundDur time.Duration // length of each
	traceDur time.Duration // length of the traced round (0 = none)
}

// maxSetups caps the builds of one run; it is reached only by rigs that
// boot in under 2.5 ms.
const maxSetups = 400

// result is one workload run: the end-to-end metrics of its untraced
// rounds, the per-layer ledger of its traced round, and the failure count.
type result struct {
	workload          string
	attempted, failed int
	problems          []string             // why the run is not correct, if it is not
	e2e               map[string]float64   // the run's value of each end-to-end metric
	e2eRounds         map[string][]float64 // the per-round (per-build, for setup_s) values
	layers            map[string]float64   // nil when no traced round ran
	tracePath         string
	// pooled holds every successful untraced query's latency, sorted.
	pooled []time.Duration
	// slows holds, per untraced round, how slow the machine ran by the
	// reference clock.
	slows []float64
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// runWorkload runs one workload end to end under the given shape.
func runWorkload(w *workload, seed int64, shape runShape, outdir string) (*result, error) {
	build, err := w.prepare(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	res := &result{workload: w.name, e2e: map[string]float64{}, e2eRounds: map[string][]float64{}}

	// One P from here on: the caller, the server's handler and the rig's
	// background goroutines take turns on one thread, so a query's time
	// is the CPU work on its path. With two, each request and reply
	// crosses vCPUs, and what the hypervisor charges to wake an idle one
	// (measured: p50 of one binary stepping between 8.5, 13 and 40 us
	// from second to second) is neither the program's nor something the
	// reference clock sees.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// Set-up, several times over, each build between two readings of the
	// reference clock: the metric is the median build in reference time,
	// the last rig is the one measured.
	var r *rig
	var setups []float64
	setupStart := time.Now()
	slow := machineSlow()
	for i := 0; i < shape.setups || (i < maxSetups && time.Since(setupStart) < shape.setupBudget); i++ {
		if r != nil {
			r.stop()
		}
		runtime.GC()
		t0 := time.Now()
		if r, err = build(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		took := time.Since(t0).Seconds()
		before := slow
		slow = machineSlow()
		setups = append(setups, took/((before+slow)/2))
	}
	defer r.stop()
	res.e2e["setup_s"] = median(setups)
	res.e2eRounds["setup_s"] = setups

	// tally books a round's answers; every round is checked, whether or
	// not its timings are used.
	shed := 0
	tally := func(rs *roundStats) {
		res.attempted += rs.attempted
		res.failed += rs.failed
		shed += rs.shed
		if rs.firstErr != nil && len(res.problems) < 4 {
			res.problems = append(res.problems, rs.firstErr.Error())
		}
	}

	cursor := 0
	if shape.warmup > 0 {
		rs := runRound(r, shape.warmup, &cursor, false)
		tally(&rs)
	}
	perRound := map[string][]float64{}
	var pooled []time.Duration
	var gcCycles uint32
	var gcPause time.Duration
	var exchanges, walks int64
	var mallocs, bytes uint64
	var slows, rawQPS []float64
	okTotal := 0
	for i := 0; i < shape.rounds; i++ {
		rs := runRound(r, shape.roundDur, &cursor, false)
		tally(&rs)
		okTotal += rs.ok()
		mallocs += rs.mallocs
		bytes += rs.bytes
		for k, v := range rs.endToEnd() {
			perRound[k] = append(perRound[k], v)
		}
		slows = append(slows, rs.slow())
		rawQPS = append(rawQPS, float64(rs.ok())/rs.wall.Seconds())
		pooled = append(pooled, rs.lats...)
		gcCycles += rs.gcCycles
		gcPause += rs.gcPause
		exchanges += rs.exchanges
		walks += rs.walks
	}
	res.slows = slows
	for _, d := range endToEndMetrics {
		if v, ok := perRound[d.name]; ok {
			res.e2e[d.name] = median(v)
			res.e2eRounds[d.name] = v
		}
	}
	// The two counts are not timings: they are taken over all rounds
	// together, which also evens out how many of the churn writer's Apply
	// calls happen to fall into a round.
	if okTotal > 0 {
		res.e2e["allocs_per_query"] = float64(mallocs) / float64(okTotal)
		res.e2e["bytes_per_query"] = float64(bytes) / float64(okTotal)
	}
	exPerQuery := float64(exchanges) / math.Max(float64(okTotal), 1)
	if !r.snmpExpected && exchanges != 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d SNMP exchanges on a workload that must issue none", exchanges))
	}
	if walks != 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d collector walks behind a snapshot that must answer every query", walks))
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i] < pooled[j] })
	res.pooled = pooled
	if shape.traceDur <= 0 {
		return res, nil
	}

	// The traced round: same loop, interposers recording.
	var cache0 qcache.Stats
	if r.cacheStats != nil {
		cache0 = r.cacheStats()
	}
	if r.snmpColl != nil {
		r.snmpColl.takeStats()
	}
	r.tr.start()
	trs := runRound(r, shape.traceDur, &cursor, true)
	spans := r.tr.stop()
	tally(&trs)

	m := ledger(spans, &trs, r)
	res.layers = m
	m["snmp_exchanges_per_query"] = exPerQuery
	m["fail_ratio"] = float64(res.failed) / float64(res.attempted)
	m["admission.shed_count"] = float64(shed)
	m["snapshot.miss_walks"] = float64(walks + trs.walks)
	m["runtime.gc_cycles"] = float64(gcCycles)
	m["runtime.gc_pause_ms"] = float64(gcPause) / float64(time.Millisecond)
	m["client.p90_us"] = us(quantile(pooled, 0.90))
	m["client.p99_us"] = us(quantile(pooled, 0.99))
	m["client.samples"] = float64(len(pooled))
	m["client.raw_qps"] = median(rawQPS)
	m["bench.machine_slow"] = median(slows)
	qps := perRound["qps"]
	if med := median(qps); med > 0 {
		mm := minMax(qps)
		m["bench.round_spread"] = (mm[1] - mm[0]) / med
		m["bench.trace_overhead_ratio"] = 1 - trs.endToEnd()["qps"]/med
	}
	if r.cacheStats != nil {
		st := r.cacheStats()
		hits, misses := st.Hits-cache0.Hits, st.Misses-cache0.Misses
		if hits+misses > 0 {
			m["qcache.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		if r.snmpExpected && hits != 0 {
			res.problems = append(res.problems, fmt.Sprintf("%d qcache hits on the cold workload", hits))
		}
	}
	if r.snmpColl != nil {
		if req, calls := r.snmpColl.takeStats(); calls > 0 {
			m["snmpcoll.requests_per_query"] = float64(req) / float64(calls)
		}
	}
	if r.probes != nil {
		r.probes(m)
	}
	if span := m["modeler.flows_span_us"]; span > 0 {
		m["modeler.self_us"] = span - m["snapshot.fresh_us"] - m["topology.flowalloc_us"]
	}
	if outdir != "" {
		if res.tracePath, err = writeTrace(outdir, w.name, seed, spans); err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", w.name, err)
		}
	}
	return res, nil
}

func minMax(v []float64) [2]float64 {
	if len(v) == 0 {
		return [2]float64{}
	}
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return [2]float64{lo, hi}
}

// ledger folds a traced round's spans into the per-layer metrics: spans
// and self times per layer per query, then medians across queries.
func ledger(spans []span, rs *roundStats, r *rig) map[string]float64 {
	m := map[string]float64{}
	self := selfTimes(spans)

	type agg struct {
		dur, self [numLayers]int64
		seen      [numLayers]bool
		fetches   int
		snmp      [][2]int64
		rtt       int64
	}
	nq := rs.attempted
	qs := make([]agg, nq)
	var roundTrips, fetchDur, applyDur []float64
	bridgeEx, masterSpans, snmpcollSpans, fetches := 0, 0, 0, 0
	for i, s := range spans {
		d := s.End - s.Start
		switch s.Layer {
		case layerSnmp:
			roundTrips = append(roundTrips, float64(d)/1e3)
			if s.Bridge {
				bridgeEx++
			}
		case layerFetch:
			fetchDur = append(fetchDur, float64(d)/1e3)
			fetches++
		case layerApply:
			applyDur = append(applyDur, float64(d)/1e6)
		case layerMaster:
			masterSpans++
		case layerSnmpcoll:
			snmpcollSpans++
		}
		if s.Query < 0 || int(s.Query) >= nq {
			continue
		}
		q := &qs[s.Query]
		q.dur[s.Layer] += d
		q.self[s.Layer] += self[i]
		q.seen[s.Layer] = true
		switch s.Layer {
		case layerSnmp:
			q.snmp = append(q.snmp, [2]int64{s.Start, s.End})
			q.rtt += s.RTT
		case layerFetch:
			q.fetches++
		}
	}

	perLayer := func(l layer, selfTime bool) float64 {
		var v []float64
		for i := range qs {
			if !qs[i].seen[l] {
				continue
			}
			if selfTime {
				v = append(v, float64(qs[i].self[l])/1e3)
			} else {
				v = append(v, float64(qs[i].dur[l])/1e3)
			}
		}
		return median(v)
	}
	if r.protoMetric != "" {
		m[r.protoMetric] = perLayer(layerClient, true)
	}
	m["modeler.flows_span_us"] = perLayer(layerModeler, false)
	m["federation.flows_span_us"] = perLayer(layerFederation, false)
	m["qcache.collect_span_us"] = perLayer(layerQcache, false)
	m["qcache.self_us"] = perLayer(layerQcache, true)
	m["master.collect_span_us"] = perLayer(layerMaster, false)
	m["master.self_us"] = perLayer(layerMaster, true)
	m["snmpcoll.collect_span_us"] = perLayer(layerSnmpcoll, false)
	m["snmpcoll.self_us"] = perLayer(layerSnmpcoll, true)
	m["snmp.roundtrip_us"] = median(roundTrips)
	m["federation.fetch_us"] = median(fetchDur)
	m["snapshot.apply_ms"] = median(applyDur)
	if masterSpans > 0 {
		m["master.subqueries_per_query"] = float64(snmpcollSpans) / float64(masterSpans)
	}
	if nq > 0 {
		m["bridgecoll.exchanges_per_query"] = float64(bridgeEx) / float64(nq)
	}
	if rs.wall > 0 {
		m["federation.fetches_per_s"] = float64(fetches) / rs.wall.Seconds()
	}

	var busyShare, accounted, refresh []float64
	var rttTotal int64
	for i := range qs {
		q := &qs[i]
		client := q.dur[layerClient]
		if client <= 0 {
			continue
		}
		accounted = append(accounted, 1-float64(q.self[layerClient])/float64(client))
		if len(q.snmp) > 0 {
			busyShare = append(busyShare, float64(covered(q.snmp, 0, math.MaxInt64))/float64(client))
		}
		rttTotal += q.rtt
		if q.fetches > 0 {
			refresh = append(refresh, float64(q.dur[layerFederation])/1e3)
		}
	}
	m["bench.accounted_share"] = median(accounted)
	m["snmp.transport_busy_share"] = median(busyShare)
	m["federation.refresh_query_us"] = median(refresh)
	if nq > 0 {
		m["snmp.modelled_rtt_ms_per_query"] = float64(rttTotal) / 1e6 / float64(nq)
	}
	return m
}

// probe times fn in batches and returns the median per-call cost in
// microseconds. Batching keeps the clock reads out of sub-microsecond
// calls.
func probe(batches, batch int, fn func(i int)) float64 {
	v := make([]float64, 0, batches)
	k := 0
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			fn(k)
			k++
		}
		v = append(v, us(time.Since(t0))/float64(batch))
	}
	return median(v)
}
