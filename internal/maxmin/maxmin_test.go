package maxmin

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSingleFlowGetsBottleneck(t *testing.T) {
	rates, err := Allocate([]float64{10, 4, 7}, []Flow{{Links: []int{0, 1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(rates[0], 4) {
		t.Fatalf("rate = %v, want 4", rates[0])
	}
}

func TestTwoFlowsShareEqually(t *testing.T) {
	rates, err := Allocate([]float64{10}, []Flow{{Links: []int{0}}, {Links: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(rates[0], 5) || !approx(rates[1], 5) {
		t.Fatalf("rates = %v, want [5 5]", rates)
	}
}

func TestDemandCapRedistributes(t *testing.T) {
	// One flow wants only 2 of the shared 10; the elastic flow gets 8.
	rates, err := Allocate([]float64{10}, []Flow{
		{Links: []int{0}, Demand: 2},
		{Links: []int{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(rates[0], 2) || !approx(rates[1], 8) {
		t.Fatalf("rates = %v, want [2 8]", rates)
	}
}

func TestClassicThreeLinkExample(t *testing.T) {
	// The textbook example: link capacities 10, 10; flow A crosses both,
	// flows B and C cross one link each. Max-min: A=5, B=5, C=5.
	rates, err := Allocate([]float64{10, 10}, []Flow{
		{Links: []int{0, 1}},
		{Links: []int{0}},
		{Links: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{5, 5, 5} {
		if !approx(rates[i], want) {
			t.Fatalf("rates = %v, want [5 5 5]", rates)
		}
	}
}

func TestUnevenBottlenecks(t *testing.T) {
	// Link 0 cap 3 shared by A,B; link 1 cap 10 shared by B,C.
	// A and B bottleneck on link 0 at 1.5 each; C then gets 8.5.
	rates, err := Allocate([]float64{3, 10}, []Flow{
		{Links: []int{0}},
		{Links: []int{0, 1}},
		{Links: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(rates[0], 1.5) || !approx(rates[1], 1.5) || !approx(rates[2], 8.5) {
		t.Fatalf("rates = %v, want [1.5 1.5 8.5]", rates)
	}
}

func TestNoLinksFlow(t *testing.T) {
	rates, err := Allocate(nil, []Flow{{Demand: 7}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(rates[0], 7) {
		t.Fatalf("demand-capped linkless flow got %v", rates[0])
	}
	if !math.IsInf(rates[1], 1) {
		t.Fatalf("elastic linkless flow got %v, want +Inf", rates[1])
	}
}

func TestBadLinkIndex(t *testing.T) {
	if _, err := Allocate([]float64{1}, []Flow{{Links: []int{2}}}); err != ErrBadLink {
		t.Fatalf("err = %v, want ErrBadLink", err)
	}
	if _, err := Bottleneck([]float64{1}, Flow{Links: []int{-1}}); err != ErrBadLink {
		t.Fatalf("Bottleneck err = %v, want ErrBadLink", err)
	}
}

func TestZeroCapacityLink(t *testing.T) {
	rates, err := Allocate([]float64{0, 5}, []Flow{{Links: []int{0, 1}}, {Links: []int{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(rates[0], 0) {
		t.Fatalf("flow over zero-capacity link got %v", rates[0])
	}
	if !approx(rates[1], 5) {
		t.Fatalf("other flow got %v, want 5", rates[1])
	}
}

func TestNegativeCapacityTreatedAsZero(t *testing.T) {
	rates, err := Allocate([]float64{-3}, []Flow{{Links: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(rates[0], 0) {
		t.Fatalf("rate over negative-capacity link = %v, want 0", rates[0])
	}
}

// A NaN capacity carries nothing, as a negative one does: a flow over it
// gets 0, not the +Inf an unbounded increment would hand it.
func TestNaNCapacityTreatedAsZero(t *testing.T) {
	nan := math.NaN()
	rates, err := Allocate([]float64{nan, 5}, []Flow{{Links: []int{0}}, {Links: []int{1}}, {Links: []int{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if rates[0] != 0 || rates[2] != 0 || !approx(rates[1], 5) {
		t.Fatalf("rates over a NaN and a 5 capacity = %v, want [0 5 0]", rates)
	}
}

// An infinite link never saturates: a flow crossing one is held by its
// other links, not frozen when an unrelated flow's link fills.
func TestInfiniteCapacityNeverSaturates(t *testing.T) {
	inf := math.Inf(1)
	rates, err := Allocate([]float64{inf, 100, 10}, []Flow{{Links: []int{0, 1}}, {Links: []int{2}}})
	if err != nil {
		t.Fatal(err)
	}
	if rates[0] != 100 || rates[1] != 10 {
		t.Fatalf("rates over +Inf, 100 and 10 capacities = %v, want [100 10]", rates)
	}
	rates, err = Allocate([]float64{inf, 10}, []Flow{{Links: []int{0}}, {Links: []int{0}, Demand: 7}, {Links: []int{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(rates[0], 1) || rates[1] != 7 || rates[2] != 10 {
		t.Fatalf("rates over +Inf and 10 capacities = %v, want [+Inf 7 10]", rates)
	}
}

// Property: NaN capacities allocate exactly as zero capacities do.
func TestPropertyNaNCapacityIsZero(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		caps, flows := randomProblem(r)
		zeroed := make([]float64, len(caps))
		for li := range caps {
			if r.Intn(3) == 0 {
				caps[li] = math.NaN()
			} else {
				zeroed[li] = caps[li]
			}
		}
		got, err := Allocate(caps, flows)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Allocate(zeroed, flows)
		if err != nil {
			t.Fatal(err)
		}
		for fi := range flows {
			if got[fi] != want[fi] {
				t.Fatalf("problem %d: flow %d gets %v over capacities %v, %v over %v", i, fi, got[fi], caps, want[fi], zeroed)
			}
		}
	}
}

func TestEmptyProblem(t *testing.T) {
	rates, err := Allocate([]float64{1, 2}, nil)
	if err != nil || len(rates) != 0 {
		t.Fatalf("rates=%v err=%v", rates, err)
	}
}

func TestBottleneck(t *testing.T) {
	bw, err := Bottleneck([]float64{10, 4, 7}, Flow{Links: []int{0, 1, 2}})
	if err != nil || !approx(bw, 4) {
		t.Fatalf("bw=%v err=%v, want 4", bw, err)
	}
	bw, err = Bottleneck([]float64{10}, Flow{Links: []int{0}, Demand: 3})
	if err != nil || !approx(bw, 3) {
		t.Fatalf("demand-capped bw=%v err=%v, want 3", bw, err)
	}
}

// randomProblem builds a random feasible allocation problem.
func randomProblem(r *rand.Rand) ([]float64, []Flow) {
	nl := 1 + r.Intn(8)
	nf := 1 + r.Intn(12)
	caps := make([]float64, nl)
	for i := range caps {
		caps[i] = 0.5 + 100*r.Float64()
	}
	flows := make([]Flow, nf)
	for i := range flows {
		used := map[int]bool{}
		n := 1 + r.Intn(nl)
		for len(used) < n {
			used[r.Intn(nl)] = true
		}
		var links []int
		for li := range used {
			links = append(links, li)
		}
		var demand float64
		if r.Intn(2) == 0 {
			demand = 0.1 + 50*r.Float64()
		}
		flows[i] = Flow{Links: links, Demand: demand}
	}
	return caps, flows
}

// Property: no link is over capacity, no flow exceeds demand, and every
// flow is "maxed": it is either at demand or crosses a saturated link.
func TestPropertyFeasibleAndPareto(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed ^ r.Int63()))
		caps, flows := randomProblem(rr)
		rates, err := Allocate(caps, flows)
		if err != nil {
			return false
		}
		load := make([]float64, len(caps))
		for fi, fl := range flows {
			if fl.Demand > 0 && rates[fi] > fl.Demand+1e-6 {
				t.Logf("flow %d over demand: %v > %v", fi, rates[fi], fl.Demand)
				return false
			}
			for _, li := range fl.Links {
				load[li] += rates[fi]
			}
		}
		for li, l := range load {
			if l > caps[li]+1e-5*math.Max(1, caps[li]) {
				t.Logf("link %d over capacity: %v > %v", li, l, caps[li])
				return false
			}
		}
		for fi, fl := range flows {
			atDemand := fl.Demand > 0 && rates[fi] >= fl.Demand-1e-5*math.Max(1, fl.Demand)
			saturated := false
			for _, li := range fl.Links {
				if load[li] >= caps[li]-1e-4*math.Max(1, caps[li]) {
					saturated = true
					break
				}
			}
			if !atDemand && !saturated {
				t.Logf("flow %d (rate %v) is neither at demand nor bottlenecked", fi, rates[fi])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: max-min fairness — you cannot raise one flow without lowering a
// flow with an equal or smaller rate. Equivalent check: for every pair of
// flows sharing a saturated link, the smaller-rate flow must be at its
// demand or equal to the larger within tolerance... Simplified canonical
// check: for each flow f not at demand, on some saturated link it crosses,
// f's rate is >= every other flow's rate on that link minus tolerance is NOT
// generally true; the correct property is f has a bottleneck link where its
// rate is maximal among flows crossing it.
func TestPropertyBottleneckLinkExists(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed ^ r.Int63()))
		caps, flows := randomProblem(rr)
		rates, err := Allocate(caps, flows)
		if err != nil {
			return false
		}
		load := make([]float64, len(caps))
		for fi, fl := range flows {
			for _, li := range fl.Links {
				load[li] += rates[fi]
			}
		}
		for fi, fl := range flows {
			if fl.Demand > 0 && rates[fi] >= fl.Demand-1e-5*math.Max(1, fl.Demand) {
				continue // demand-limited flows need no bottleneck link
			}
			ok := false
			for _, li := range fl.Links {
				if load[li] < caps[li]-1e-4*math.Max(1, caps[li]) {
					continue // link not saturated
				}
				maxOther := 0.0
				for fj, fl2 := range flows {
					if fj == fi {
						continue
					}
					for _, lj := range fl2.Links {
						if lj == li && rates[fj] > maxOther {
							maxOther = rates[fj]
						}
					}
				}
				if rates[fi] >= maxOther-1e-4*math.Max(1, maxOther) {
					ok = true
					break
				}
			}
			if !ok {
				t.Logf("flow %d (rate %v) has no bottleneck link", fi, rates[fi])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAllocate64Flows is 64 two-link flows over 32 links, solved
// the way the path index solves a query: on one reused Allocator, into
// one reused rate vector.
func BenchmarkAllocate64Flows(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	caps := make([]float64, 32)
	for i := range caps {
		caps[i] = 10 + 90*r.Float64()
	}
	flows := make([]Flow, 64)
	for i := range flows {
		// Two distinct links: a flow names a link at most once.
		l := r.Intn(32)
		flows[i] = Flow{Links: []int{l, (l + 1 + r.Intn(31)) % 32}}
	}
	var a Allocator
	var rates []float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if rates, err = a.AllocateInto(rates[:0], caps, flows); err != nil {
			b.Fatal(err)
		}
	}
}
