package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"remos/internal/lint"
)

// benchmarkJSON mirrors the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestContractMatchesHarness holds BENCHMARK.json and the harness's own
// tables to each other: same workloads, same metrics, same units,
// directions and bounds, in the same order.
func TestContractMatchesHarness(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness has %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, harness has %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, d := range endToEndMetrics {
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, harness has %+v", i, got, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, harness has %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, d := range perLayerMetrics {
		got := b.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, harness has %+v", i, got, d)
		}
	}
	// The whole driver schedule must fit its budget: 4 + 22 runs per
	// workload, each run_seconds of measuring, a tenth on top for the
	// readings of the reference clock, plus set-up and oracle.
	runs := 4 + 22*len(b.Workloads)
	if perRun := b.RunSeconds*11/10 + 7; runs*perRun > 3420-2*120 {
		t.Errorf("%d runs of ~%d s do not fit the driver's 3420 s with two builds", runs, perRun)
	}
}

// TestSmoke runs every workload for one 200 ms round and one 200 ms
// traced round, and checks that every metric of the contract is emitted
// exactly once, finite, with no failure and no SNMP exchange off the cold
// path.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	shape := runShape{setups: 1, rounds: 1, roundDur: 200 * time.Millisecond, traceDur: 200 * time.Millisecond}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, 1, shape, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Fatalf("run not correct: failed %d of %d, %v", res.failed, res.attempted, res.problems)
			}
			if res.attempted < 1 {
				t.Fatal("nothing attempted")
			}
			for _, traced := range []bool{false, true} {
				var line struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				raw := contractLine(res, traced)
				if err := json.Unmarshal(raw, &line); err != nil {
					t.Fatalf("contract line: %v", err)
				}
				want := map[string]string{}
				if traced {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics emitted, contract names %d", traced, len(line.Metrics), len(want))
				}
				for name, unit := range want {
					// A JSON object key can only decode once, so a name
					// emitted twice would show in the raw line.
					if n := strings.Count(string(raw), `"`+name+`":`); n != 1 {
						t.Errorf("traced=%v: %s emitted %d times", traced, name, n)
					}
					m, ok := line.Metrics[name]
					if !ok || m.Value == nil {
						t.Errorf("traced=%v: %s not emitted", traced, name)
						continue
					}
					if m.Unit != unit {
						t.Errorf("%s: unit %q, contract says %q", name, m.Unit, unit)
					}
					if math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
						t.Errorf("%s is not finite: %v", name, *m.Value)
					}
					if !traced && *m.Value <= 0 {
						t.Errorf("end-to-end metric %s must never be 0, got %v", name, *m.Value)
					}
				}
			}
			if v := res.layers["fail_ratio"]; v != 0 {
				t.Errorf("fail_ratio = %v", v)
			}
			ex := res.layers["snmp_exchanges_per_query"]
			if w.name == "cold_campus" {
				if ex <= 0 {
					t.Errorf("cold_campus issued no SNMP exchanges")
				}
				if res.layers["qcache.hit_ratio"] != 0 {
					t.Errorf("cold_campus qcache.hit_ratio = %v", res.layers["qcache.hit_ratio"])
				}
			} else if ex != 0 {
				t.Errorf("snmp_exchanges_per_query = %v off the cold path", ex)
			}
			if _, err := os.Stat(res.tracePath); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestRemoslintClean keeps the repo lint-clean with the harness in it:
// the linter walks directories, not modules, so bench/ is audited with
// the rest, and the harness earns no allow directives.
func TestRemoslintClean(t *testing.T) {
	pkgs, err := lint.LoadModule("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lint.Run(pkgs, lint.DefaultPolicy()) {
		t.Errorf("remoslint: %s", d)
	}
	here, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range lint.Allows(pkgs) {
		if strings.HasPrefix(a.File, here+string(filepath.Separator)) {
			t.Errorf("%s:%d: the harness carries a remoslint:allow (%s)", a.File, a.Line, a.Check)
		}
	}
}
