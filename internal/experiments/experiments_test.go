package experiments

import (
	"math"
	"testing"
	"time"
)

// The tests here assert the *shape* of each reproduced result — who wins,
// by roughly what factor, where the crossovers fall — with tolerances
// wide enough to be robust to seed changes. Exact paper-vs-measured
// numbers are recorded in EXPERIMENTS.md.

func TestFig3Shape(t *testing.T) {
	r, err := Fig3(128) // full 1280 runs in remosbench; 128 keeps CI fast
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 6 {
		t.Fatalf("only %d rows", len(r.Rows))
	}
	last := r.Rows[len(r.Rows)-1]
	// Caching pays off: cold is a factor over warm (paper: 3x or more).
	if last.Cold < 2*last.Warm {
		t.Fatalf("cold %v not clearly above warm %v", last.Cold, last.Warm)
	}
	// Ordering: cold is the most expensive scenario everywhere.
	for _, row := range r.Rows {
		if row.Cold < row.Warm || row.Cold < row.PartWarm || row.Cold < row.WarmBridge {
			t.Fatalf("cold not maximal at N=%d: %+v", row.N, row)
		}
	}
	// Warm cost grows with N (it is O(N): per-host verification).
	first := r.Rows[0]
	if last.Warm <= first.Warm {
		t.Fatalf("warm cost flat: %v at N=%d vs %v at N=%d",
			first.Warm, first.N, last.Warm, last.N)
	}
	// Dynamic-data scenarios include the poll-interval wait.
	if last.Cold < 5*time.Second || last.WarmBridge < 5*time.Second {
		t.Fatal("cold scenarios missing the first-delta wait")
	}
	if last.Warm > 5*time.Second {
		t.Fatal("warm query should not wait for polling")
	}
}

// TestFig3Pinned pins every duration of Fig 3 up to 64 nodes. Each is
// simulated — metered SNMP round trips, plus one poll interval for a query
// that starts monitoring — so it moves only when a scenario asks another
// number of questions or waits another way: a change to what the
// collector allocates, or to how DropCaches and DropDynamic empty its
// tables, must leave it alone.
func TestFig3Pinned(t *testing.T) {
	const ms = time.Millisecond
	want := []Fig3Row{
		{N: 2, Cold: 5018 * ms, PartWarm: 5016 * ms, WarmBridge: 5014 * ms, Warm: 8 * ms},
		{N: 4, Cold: 5034 * ms, PartWarm: 5026 * ms, WarmBridge: 5026 * ms, Warm: 16 * ms},
		{N: 8, Cold: 5034 * ms, PartWarm: 5024 * ms, WarmBridge: 5026 * ms, Warm: 16 * ms},
		{N: 16, Cold: 5034 * ms, PartWarm: 5024 * ms, WarmBridge: 5026 * ms, Warm: 16 * ms},
		{N: 32, Cold: 5042 * ms, PartWarm: 5024 * ms, WarmBridge: 5034 * ms, Warm: 16 * ms},
		{N: 64, Cold: 5050 * ms, PartWarm: 5032 * ms, WarmBridge: 5042 * ms, Warm: 16 * ms},
	}
	r, err := Fig3(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(r.Rows), len(want))
	}
	for i, row := range r.Rows {
		if row != want[i] {
			t.Errorf("row %d: %+v, want %+v", i, row, want[i])
		}
	}
}

func TestFig45Shape(t *testing.T) {
	r2, err := Fig45(2*time.Second, 180*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r5, err := Fig45(5*time.Second, 200*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Finer sampling tracks the bursts more closely.
	if r2.MAE >= r5.MAE {
		t.Fatalf("2s MAE %.2f should beat 5s MAE %.2f", r2.MAE, r5.MAE)
	}
	// Both track reasonably ("fairly good match"): MAE well under the
	// burst amplitude (tens of Mbit/s).
	if r5.MAE > 15 {
		t.Fatalf("5s MAE %.2f Mbit/s: not a fair match", r5.MAE)
	}
	// The collector actually sees the big burst.
	sawHigh := false
	for _, p := range r2.Points {
		if p.Observed > 80 {
			sawHigh = true
		}
	}
	if !sawHigh {
		t.Fatal("collector never observed the 90 Mbit/s burst")
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6(nil)
	if err != nil {
		t.Fatal(err)
	}
	// CPU usage is linear in rate below saturation and saturates at the
	// top of the sweep.
	var prev float64 = -1
	sawSat := false
	for _, p := range r.Points {
		if p.CPUUsage < prev-1e-12 {
			t.Fatalf("CPU usage decreasing at %v Hz", p.RateHz)
		}
		prev = p.CPUUsage
		if p.Saturated {
			sawSat = true
		}
	}
	if !sawSat {
		t.Fatal("sweep never saturated; extend the rates")
	}
	// At 1 Hz (the operational rate) usage is negligible, as §5.3 says.
	if r.Points[0].CPUUsage > 0.01 {
		t.Fatalf("1 Hz usage %.4f: should be negligible", r.Points[0].CPUUsage)
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7(nil)
	if err != nil {
		t.Fatal(err)
	}
	costs := map[string]time.Duration{}
	for _, row := range r.Rows {
		costs[row.Model] = row.FitInit
		if row.FitInit <= 0 || row.StepPredict <= 0 {
			t.Fatalf("%s has non-positive cost", row.Model)
		}
	}
	// The model families span orders of magnitude in fit cost (paper:
	// four orders; LAST vs ARMA must differ by at least ~100x here).
	if costs["ARMA(8,8)"] < 100*costs["LAST"] {
		t.Fatalf("cost spread too small: ARMA %v vs LAST %v", costs["ARMA(8,8)"], costs["LAST"])
	}
	// Box-Jenkins fits cost far more than trivial models.
	if costs["AR(16)"] < 5*costs["MEAN"] {
		t.Fatalf("AR fit %v vs MEAN fit %v", costs["AR(16)"], costs["MEAN"])
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := Mirror(Fig8Sites, 60, 3e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	frac := r.FractionCorrect()
	if frac < 0.6 || frac > 0.98 {
		t.Fatalf("fraction correct %.2f outside [0.6, 0.98] (paper: 0.83)", frac)
	}
	// When Remos picked right, its first choice clearly beats the rest.
	avg := r.AvgByRank(true)
	if avg[0] < 1.3*avg[1] {
		t.Fatalf("correct-pick rank1 %.2f not clearly above rank2 %.2f", avg[0]/1e6, avg[1]/1e6)
	}
	// Effective bandwidth (with query time) is below raw but still above
	// the slower sites — the paper's point.
	eff := r.AvgEffective(true)
	if eff >= avg[0] {
		t.Fatal("effective bandwidth cannot exceed raw first-choice bandwidth")
	}
	if eff < avg[1]*0.8 {
		t.Fatalf("effective %.2f fell below second choice %.2f: consulting Remos did not pay",
			eff/1e6, avg[1]/1e6)
	}
	// NWU-scale first choice (paper: 4.40 vs ~2 for others).
	if avg[0] < 3e6 {
		t.Fatalf("rank1 avg %.2f Mbit/s: expected the 4ish-Mbit site to be picked", avg[0]/1e6)
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Mirror(Fig9Sites, 50, 3e6, 2)
	if err != nil {
		t.Fatal(err)
	}
	frac := r.FractionCorrect()
	if frac < 0.6 || frac > 0.99 {
		t.Fatalf("fraction correct %.2f outside [0.6, 0.99] (paper: 0.82)", frac)
	}
	avg := r.AvgByRank(true)
	// Poor sites: rank1 around 1 Mbit/s, rank3 under 0.15 (the DSL
	// host) — "using Remos to pick a site is effective even when all of
	// the sites have poor connectivity".
	if avg[0] < 0.5e6 || avg[0] > 2e6 {
		t.Fatalf("rank1 avg %.2f Mbit/s out of the poor-site range", avg[0]/1e6)
	}
	if avg[len(avg)-1] > 0.2e6 {
		t.Fatalf("worst site avg %.2f Mbit/s: DSL host should be ~0.08", avg[len(avg)-1]/1e6)
	}
}

func TestTable1Shape(t *testing.T) {
	r, err := Table1(24, 3)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table1Row{}
	for _, row := range r.Rows {
		byName[row.Site] = row
	}
	// Orders of magnitude, as the paper stresses: ETH >> EPFL >> the
	// rest.
	if byName["eth"].MeanBw < 10*byName["epfl"].MeanBw {
		t.Fatalf("eth %.1f not an order of magnitude above epfl %.1f",
			byName["eth"].MeanBw/1e6, byName["epfl"].MeanBw/1e6)
	}
	if byName["epfl"].MeanBw < 4*byName["cmu"].MeanBw {
		t.Fatalf("epfl %.2f not well above cmu %.2f",
			byName["epfl"].MeanBw/1e6, byName["cmu"].MeanBw/1e6)
	}
	order := []string{"eth", "epfl", "cmu", "valladolid", "coimbra"}
	for i := 0; i+1 < len(order); i++ {
		if byName[order[i]].MeanBw <= byName[order[i+1]].MeanBw {
			t.Fatalf("ordering broken: %s <= %s", order[i], order[i+1])
		}
	}
	// Ballpark per-site levels (paper: 63.1, 3.03, 0.50, 0.37, 0.18).
	approxRange := func(name string, lo, hi float64) {
		if v := byName[name].MeanBw / 1e6; v < lo || v > hi {
			t.Errorf("%s mean %.2f Mbit/s outside [%.2f, %.2f]", name, v, lo, hi)
		}
	}
	approxRange("eth", 40, 90)
	approxRange("epfl", 2, 4)
	approxRange("cmu", 0.3, 0.9)
	approxRange("valladolid", 0.2, 0.7)
	approxRange("coimbra", 0.1, 0.3)
}

func TestFig10Shape(t *testing.T) {
	r, err := Fig10(21, 4)
	if err != nil {
		t.Fatal(err)
	}
	frac := r.FractionCorrect()
	if frac < 0.7 || frac > 1.0 {
		t.Fatalf("fraction correct %.2f outside [0.7, 1.0] (paper: 0.90)", frac)
	}
	// Frame counts are ordered like bandwidth on average: cmu >
	// valladolid > coimbra.
	sums := map[string]int{}
	for _, run := range r.Runs {
		for k, v := range run.Frames {
			sums[k] += v
		}
	}
	if !(sums["cmu"] > sums["valladolid"] && sums["valladolid"] > sums["coimbra"]) {
		t.Fatalf("aggregate frame ordering broken: %v", sums)
	}
}

func TestFig11Shape(t *testing.T) {
	r, err := Fig11(5)
	if err != nil {
		t.Fatal(err)
	}
	// Remote: the 10s averages match the Remos-reported value; the 1s
	// averages fluctuate more.
	mean10, std10 := meanStd(r.Remote.Win10s)
	_, std1 := meanStd(r.Remote.Win1s)
	if math.Abs(mean10-r.Remote.RemosBw) > 0.45*r.Remote.RemosBw {
		t.Fatalf("remote 10s mean %.2f vs Remos %.2f: should correspond",
			mean10/1e6, r.Remote.RemosBw/1e6)
	}
	if std1 <= std10 {
		t.Fatalf("short-window fluctuation (%.3f) should exceed long-window (%.3f)",
			std1/1e6, std10/1e6)
	}
	// Local: not bandwidth limited; the app draws the movie rate
	// (~1 Mbit/s), far below the Remos-reported LAN availability.
	meanL, _ := meanStd(r.Local.Win1s)
	if meanL > r.Local.RemosBw/4 {
		t.Fatalf("local download rate %.2f should sit far below LAN availability %.2f",
			meanL/1e6, r.Local.RemosBw/1e6)
	}
	// Local fluctuations reflect movie content: 1s series must vary.
	_, stdL := meanStd(r.Local.Win1s)
	if stdL < 0.05e6 {
		t.Fatal("local 1s series suspiciously flat; content modulation missing")
	}
}

func TestMovieProperties(t *testing.T) {
	m := MakeMovie(1, 140*time.Second, 25, 1e6)
	if len(m.Frames) != 3500 {
		t.Fatalf("frames = %d, want 3500", len(m.Frames))
	}
	if r := m.AvgRate(); math.Abs(r-1e6) > 0.15e6 {
		t.Fatalf("avg rate %.2f Mbit/s, want ~1", r/1e6)
	}
	// I frames every 12, priorities in {0,1,2}.
	for i, f := range m.Frames {
		if i%12 == 0 && f.Pri != 0 {
			t.Fatalf("frame %d should be I", i)
		}
		if f.Pri < 0 || f.Pri > 2 {
			t.Fatalf("frame %d priority %d", i, f.Pri)
		}
		if f.Bytes <= 0 {
			t.Fatalf("frame %d non-positive size", i)
		}
	}
}

func TestWindowAverages(t *testing.T) {
	samples := []RecvSample{
		{Bytes: 100, Dt: 500 * time.Millisecond},
		{Bytes: 300, Dt: 500 * time.Millisecond},
		{Bytes: 200, Dt: 500 * time.Millisecond},
		{Bytes: 200, Dt: 500 * time.Millisecond},
	}
	w := WindowAverages(samples, time.Second)
	if len(w) != 2 {
		t.Fatalf("windows = %d, want 2", len(w))
	}
	if w[0] != 400*8 || w[1] != 400*8 {
		t.Fatalf("averages = %v", w)
	}
}
