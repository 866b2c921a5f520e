package snmpcoll

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"remos/internal/collector"
	"remos/internal/netsim"
	"remos/internal/sim"
)

// Tests for collector-side streaming prediction (the Section 2.3
// configuration integrated here as an extension).

func streamSite(t *testing.T) *site {
	return newSite(t, func(c *Config) {
		c.StreamPredict = "BM(16)"
	})
}

func TestStreamingPredictorsAttachAfterMinHistory(t *testing.T) {
	st := streamSite(t)
	q := collector.Query{
		Hosts:           []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")},
		WithPredictions: true,
	}
	st.n.StartFlow(st.d["h1"], st.d["h2"], netsim.FlowSpec{Demand: 4e6})
	forecasts := func() int {
		res, err := st.sc.Collect(q)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Predictions)
	}
	forecasts() // starts monitoring
	// Below the 64-sample fit threshold: no forecasts yet.
	st.s.RunFor(5 * time.Minute) // 60 polls
	if n := forecasts(); n != 0 {
		t.Fatalf("%d forecasts with only ~60 samples", n)
	}
	// Past it: the monitored directions get predictors.
	st.s.RunFor(time.Minute)
	if forecasts() == 0 {
		t.Fatal("no streaming predictors after ample history")
	}
}

func TestCollectReturnsForecasts(t *testing.T) {
	st := streamSite(t)
	q := collector.Query{
		Hosts:           []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")},
		WithPredictions: true,
	}
	st.n.StartFlow(st.d["h1"], st.d["h2"], netsim.FlowSpec{Demand: 4e6})
	if _, err := st.sc.Collect(q); err != nil {
		t.Fatal(err)
	}
	st.s.RunFor(400 * time.Second)
	res, err := st.sc.Collect(q)
	if err != nil {
		t.Fatal(err)
	}
	fc, ok := res.Predictions[collector.HistKey{From: "r1", To: "r2"}]
	if !ok {
		t.Fatalf("no forecast for the WAN link; got %d forecasts", len(res.Predictions))
	}
	if len(fc.Values) != 8 {
		t.Fatalf("forecast horizon %d, want 8", len(fc.Values))
	}
	// Steady 4 Mbit/s load: the forecast says so.
	if math.Abs(fc.Values[0]-4e6) > 5e5 {
		t.Fatalf("forecast %v, want ~4e6", fc.Values[0])
	}
	// Not requested -> not returned.
	res, err = st.sc.Collect(collector.Query{Hosts: q.Hosts})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != 0 {
		t.Fatal("predictions returned without being requested")
	}
}

func TestForecastTracksLoadChange(t *testing.T) {
	st := streamSite(t)
	q := collector.Query{
		Hosts:           []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")},
		WithPredictions: true,
	}
	f, _ := st.n.StartFlow(st.d["h1"], st.d["h2"], netsim.FlowSpec{Demand: 2e6})
	if _, err := st.sc.Collect(q); err != nil {
		t.Fatal(err)
	}
	st.s.RunFor(400 * time.Second)
	f.SetDemand(8e6)
	st.s.RunFor(120 * time.Second) // the BM(16) window turns over
	res, err := st.sc.Collect(q)
	if err != nil {
		t.Fatal(err)
	}
	fc := res.Predictions[collector.HistKey{From: "r1", To: "r2"}]
	if len(fc.Values) == 0 || math.Abs(fc.Values[0]-8e6) > 1e6 {
		t.Fatalf("forecast %v did not track the load change to 8e6", fc.Values)
	}
}

func TestNoStreamConfigNoForecasts(t *testing.T) {
	st := newSite(t, nil) // StreamPredict unset
	q := collector.Query{
		Hosts:           []netip.Addr{addrOf(st, "h1"), addrOf(st, "h2")},
		WithPredictions: true,
	}
	if _, err := st.sc.Collect(q); err != nil {
		t.Fatal(err)
	}
	st.s.RunFor(200 * time.Second)
	res, err := st.sc.Collect(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != 0 {
		t.Fatal("forecasts produced without StreamPredict configured")
	}
}

func TestBadStreamSpecPanicsAtConstruction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad StreamPredict spec")
		}
	}()
	New(Config{Sched: sim.NewSim(), StreamPredict: "WAVELET(3)"})
}
