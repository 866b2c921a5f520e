// Command bench is the Remos benchmark: six single-mode workloads driven
// closed-loop by one caller each, six bounded end-to-end metrics, and a
// per-layer ledger measured from outside the packages by interposers at
// their interface seams and by probes into their public functions. It
// checks every answer against emulator ground truth and exits non-zero on
// any wrong one. See README.md in this directory.
//
//	go run . [-seed n]                       every workload, human-readable
//	go run . -aa 2                           the full set twice, A/A table
//	go run . --workload w --seed n --seconds s --trace 0|1
//	                                         one run; last stdout line is JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

var workloads = []*workload{
	warmWorkload("warm_ascii",
		"the paper's warm case and the daemon's hot path: ASCII codec, loopback and admission dominate, the collectors do nothing",
		false),
	warmWorkload("warm_http",
		"same layers below proto under the XML/HTTP codec, several times the cost of ASCII: the pair a one-request-core refactor must hold",
		true),
	coldWorkload("cold_campus",
		"Fig. 3's cold case: master fan-out, discovery walks, BER, the mib agents and graph encode/decode all do work on every query"),
	scaleWorkload("scale_static",
		"no wire, no collector: PathIndex and max-min on a 10204-node fabric; bypass workload for wire changes, exercise for compute changes",
		false),
	scaleWorkload("scale_churn",
		"the same fabric and queries beside a writer swapping generations every 10000 queries (~250 ms): read-side gains bought with heavier Apply or memo builds show here",
		true),
	fedWorkload("fed_cross",
		"the federated path resolve, fetch, stitch and its advert-epoch cache over loopback sockets, masters refreshing every 100 ms"),
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print one JSON result line last (default: all, human-readable)")
		seed    = flag.Int64("seed", 1, "seed of the generated query mix")
		seconds = flag.Int("seconds", 10, "measured seconds per workload")
		trace   = flag.Int("trace", -1, "with -workload: 0 = end-to-end metrics only, 1 = per-layer metrics from a traced round")
		aa      = flag.Int("aa", 0, "run the full set this many times and compare the runs against the bounds")
		outdir  = flag.String("outdir", "", "directory for trace_<workload>.json (default: a fresh temp dir)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	printEnv()
	defer runtime.KeepAlive(gcBallast)

	dir := func() string {
		if *outdir != "" {
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				fatalf("%v", err)
			}
			return *outdir
		}
		d, err := os.MkdirTemp("", "remos-bench-")
		if err != nil {
			fatalf("%v", err)
		}
		return d
	}

	total := time.Duration(*seconds) * roundDur
	switch {
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		// One contract run: one-second rounds with tracing off, or three
		// fifths of them and a traced round over the remaining time.
		shape := fullShape(*seconds)
		shape.traceDur = 0
		out := ""
		if *trace == 1 {
			shape.rounds = max(1, 3**seconds/5)
			shape.traceDur = max(roundDur, total-time.Duration(shape.rounds)*roundDur)
			out = dir()
		}
		res, err := runWorkload(w, *seed, shape, out)
		if err != nil {
			fatalf("%v", err)
		}
		printResult(res)
		fmt.Println(string(contractLine(res, *trace == 1)))
		if !res.correct() {
			os.Exit(1)
		}
	case *aa > 0:
		if !runAA(*aa, *seed, fullShape(*seconds), dir()) {
			os.Exit(1)
		}
	default:
		if _, ok := runAll(*seed, fullShape(*seconds), dir()); !ok {
			os.Exit(1)
		}
	}
}

// gcBallast is pointer-free memory the harness holds for its whole life so
// that the garbage collector paces as it would in a daemon with a real
// heap. The rigs' live heaps are a few MiB; at Go's 4 MiB floor a
// collection would start every few thousand queries, be in progress for
// a third of the run, and put p50 and p90 on the boundary between the
// queries that ran beside a collection and those that did not. The pages
// are never touched, so they cost address space, not memory.
var gcBallast = make([]byte, 256<<20)

// A run builds its rig at least minSetups times and keeps re-building
// until setupBudget is spent; setup_s is the median build.
const (
	minSetups   = 5
	setupBudget = time.Second
)

// roundDur is the length of a measured round. A timing metric is computed
// per round, in reference time, and the run's value is the median over
// the rounds, which steps over a round that a burst on the host coloured
// more than the reference clock could follow.
const roundDur = time.Second

// fullShape is the stand-alone run: a warm-up second, seconds one-second
// rounds with tracing off, then one traced round of two seconds.
func fullShape(seconds int) runShape {
	return runShape{
		setups: minSetups, setupBudget: setupBudget,
		warmup: roundDur, rounds: seconds, roundDur: roundDur, traceDur: 2 * roundDur,
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// printEnv states what the numbers were taken on.
func printEnv() {
	fmt.Printf("# env: nproc=%d, rigs run on GOMAXPROCS=1, %s %s/%s\n",
		runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Println("# env: every socket is host loopback; SNMP runs over snmp.InProc — no link is crossed, modelled RTT is reported, not slept")
	fmt.Println("# env: load is closed-loop, one caller per workload, server in the same process")
	fmt.Printf("# env: timings are in reference time: divided, slice by slice, by how slow the machine ran a fixed computation (1 = %v per pass)\n", refNominal)
}

// runAll runs every workload once and prints each result.
func runAll(seed int64, shape runShape, outdir string) ([]*result, bool) {
	ok := true
	var all []*result
	for _, w := range workloads {
		res, err := runWorkload(w, seed, shape, outdir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			ok = false
			continue
		}
		printResult(res)
		ok = ok && res.correct()
		all = append(all, res)
	}
	return all, ok
}

func printResult(r *result) {
	fmt.Printf("\nworkload %s: attempted %d, failed %d\n", r.workload, r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Printf("  WRONG: %s\n", p)
	}
	fmt.Println("  end-to-end, tracing off (timings: reference time, median over the rounds; counts: all rounds; setup_s: median build) [min .. max]")
	for _, d := range endToEndMetrics {
		rg := minMax(r.e2eRounds[d.name])
		fmt.Printf("    %-34s %14.4f %-5s [%.4f .. %.4f]\n", d.name, r.e2e[d.name], d.unit, rg[0], rg[1])
	}
	fmt.Printf("  setup_s is the median of %d builds; per-round values:\n", len(r.e2eRounds["setup_s"]))
	fmt.Printf("  rounds %s machine_slow:", r.workload)
	for _, v := range r.slows {
		fmt.Printf(" %.4g", v)
	}
	fmt.Println()
	for _, d := range endToEndMetrics[1:] {
		fmt.Printf("  rounds %s %s:", r.workload, d.name)
		for _, v := range r.e2eRounds[d.name] {
			fmt.Printf(" %.4g", v)
		}
		fmt.Println()
	}
	fmt.Printf("  latency quantiles over all %d untraced samples (us, reference time):", len(r.pooled))
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99} {
		fmt.Printf(" p%.0f=%.1f", 100*q, us(quantile(r.pooled, q)))
	}
	fmt.Println()
	if r.layers == nil {
		return
	}
	fmt.Println("  per-layer (traced round, wall clock as measured; 0 = layer not on this workload's path)")
	for _, d := range perLayerMetrics {
		fmt.Printf("    %-34s %14.4f %s\n", d.name, r.layers[d.name], d.unit)
	}
	if r.tracePath != "" {
		fmt.Printf("  trace: %s\n", r.tracePath)
	}
}

// contractLine renders the one JSON object the driver reads.
func contractLine(r *result, traced bool) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	defs, vals := endToEndMetrics, r.e2e
	if traced {
		defs, vals = perLayerMetrics, r.layers
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	if err != nil {
		fatalf("%v", err) // a struct of numbers and strings always marshals
	}
	return line
}

// runAA runs every workload n times from this one binary, a workload's
// runs back to back so that the host's slow drift is not mistaken for
// the harness's own scatter, and prints, per end-to-end metric and
// workload, how far each later run sits from the first beside the
// metric's bound. It reports whether every pair agreed.
func runAA(n int, seed int64, shape runShape, outdir string) bool {
	runs := make([][]*result, len(workloads))
	for wi, w := range workloads {
		for k := 0; k < n; k++ {
			res, err := runWorkload(w, seed, shape, outdir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return false
			}
			fmt.Printf("\n# A/A run %d of %d", k+1, n)
			printResult(res)
			if !res.correct() {
				return false
			}
			runs[wi] = append(runs[wi], res)
		}
	}
	ok := true
	fmt.Printf("\n# A/A: relative difference of run k from run 1, per metric and workload (seed %d)\n", seed)
	fmt.Printf("%-14s %-18s %5s %14s %14s %9s %7s\n", "workload", "metric", "run", "run 1", "run k", "diff", "bound")
	for wi, w := range workloads {
		for _, d := range endToEndMetrics {
			a := runs[wi][0].e2e[d.name]
			for k := 1; k < n; k++ {
				b := runs[wi][k].e2e[d.name]
				diff := math.Abs(b-a) / math.Abs(a)
				verdict := ""
				if diff > d.bound {
					verdict = "  BREACH"
					ok = false
				}
				fmt.Printf("%-14s %-18s %5d %14.4f %14.4f %8.2f%% %6.0f%%%s\n",
					w.name, d.name, k+1, a, b, 100*diff, 100*d.bound, verdict)
			}
		}
	}
	return ok
}
