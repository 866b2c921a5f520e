package main

import (
	"sort"
	"strconv"
	"time"
)

// The reference clock. The box is a VM on a shared host whose cores run
// at a speed that moves by a fifth and more from second to second with
// what the co-tenants do: same binary, same inputs, in-process compute
// only, and the CPU time per query read 7.8 to 13.6 us within one
// minute; ten back-to-back runs sat 20% apart between their quartiles.
// Nothing in the guest can hold that still, so the harness measures it.
// Between slices of the workload it times a fixed piece of work that no
// change to the repository can alter, and divides each slice's timings by
// how slow the machine ran around it. What the benchmark reports is
// reference time: what the timing would have been on a machine that does
// one pass of the reference in refNominal.
//
// The host slows a guest in more than one way, and a pass has a part for
// each of the two that were seen. Standard-library sorting, number
// formatting and parsing and map traffic run out of the core's own
// caches, as the query path's own instructions do, and follow the core's
// speed. A read-modify-write sweep over refStream bytes, more than a
// core's share of the L2, follows the shared cache and the memory behind
// it, which the neighbours flood at times: with the compute part alone,
// ten scale_static runs sat 20% apart between their quartiles during such
// a time, with the sweep 7% (README, "How steady it is").

// refNominal is what one pass of reference() takes on this kind of box
// when the host is calm. It only fixes the scale of the reported numbers,
// so that they read like wall-clock ones.
const refNominal = 200 * time.Microsecond

// refStream is the length of the sweep: 1.5 MiB, about a quarter of a
// calm pass, between what the workloads at the two ends wanted. With no
// sweep scale_static was three times less steady when the host was busy
// (quartiles of eight runs 20% apart against 7% with 1 MiB); cold_campus,
// which allocates 1.6 MB a query, was steadier with 2 MiB than with 1 MiB
// (9% against 15% on the worst hour seen); warm_ascii, which stays in
// cache, was steadier with 1 MiB or none than with 2 MiB (1.2% against
// 3.4% on a calm host), a memory system it does not use being no guide
// to it.
const refStream = 1536 << 10

var (
	refInts [2048]int
	refBuf  = make([]byte, refStream)
	refSink int // keeps the compiler from dropping the work
)

func init() {
	x := uint64(0x9e3779b97f4a7c15) // xorshift64, fixed seed
	for i := range refInts {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		refInts[i] = int(x >> 40)
	}
}

// reference does one pass of the fixed work.
func reference() {
	var ints [len(refInts)]int
	copy(ints[:], refInts[:])
	sort.Ints(ints[:])
	m := make(map[string]int, 256)
	var buf []byte
	for i := 0; i < 256; i++ {
		buf = strconv.AppendFloat(buf[:0], float64(ints[i*8])/7, 'g', -1, 64)
		f, _ := strconv.ParseFloat(string(buf), 64)
		m[string(buf)] += int(f)
	}
	for i := 0; i < 256; i++ {
		buf = strconv.AppendInt(buf[:0], int64(ints[i*8+1]), 10)
		refSink += m[string(buf)]
	}
	for i := 0; i < len(refBuf); i += 64 { // one touch per cache line
		refBuf[i]++
	}
	refSink += len(m) + ints[len(ints)/2]
}

// refPasses is how many passes one reading of the clock takes. The
// reading is their median, so a pass that a background goroutine of the
// rig (a master's refresh, the churn writer) or an interrupt cut into
// does not colour it.
const refPasses = 8

// machineSlow reads the reference clock: 1 when a pass takes refNominal,
// 1.25 when everything takes a quarter longer.
func machineSlow() float64 {
	var passes [refPasses]float64
	for i := range passes {
		t0 := time.Now()
		reference()
		passes[i] = float64(time.Since(t0))
	}
	return median(passes[:]) / float64(refNominal)
}
