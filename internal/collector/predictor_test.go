package collector

import (
	"sync"
	"testing"
	"time"
)

var predKey = HistKey{From: "r1", To: "r2"}

// feedN feeds samples from..from+n-1 of a signal that is not constant, so
// a fit on it is not degenerate.
func feedN(p *Predictor, k HistKey, from, n int) {
	for i := from; i < from+n; i++ {
		p.Feed(k, Sample{T: time.Unix(int64(i), 0), Bits: 2e6 + 1e5*float64(i%7)})
	}
}

func TestPredictorFitsOnceTheWindowIsHeld(t *testing.T) {
	p, err := NewPredictor("AR(8)", 5)
	if err != nil {
		t.Fatal(err)
	}
	// The sample that completes the window goes into the fit, not through
	// the fitted model: nothing to forecast from until the one after it.
	feedN(p, predKey, 0, predictorMinFit-1)
	if _, ok := p.Forecast(predKey); ok {
		t.Fatalf("forecast with %d samples held", predictorMinFit-1)
	}
	feedN(p, predKey, predictorMinFit-1, 1)
	if _, ok := p.Forecast(predKey); ok || len(p.Forecasts()) != 0 {
		t.Fatal("the fit's own last sample produced a forecast")
	}
	feedN(p, predKey, predictorMinFit, 1)
	fc, ok := p.Forecast(predKey)
	if !ok || len(fc.Values) != 5 || len(fc.ErrVar) != 5 {
		t.Fatalf("forecast after the first observation = %+v, %t; want 5 steps", fc, ok)
	}
	if _, ok := p.Forecast(HistKey{From: "x", To: "y"}); ok {
		t.Fatal("forecast for a key never fed")
	}

	// Forecasts are copies: a caller may overwrite what it was handed.
	want := fc.Values[0]
	fc.Values[0], fc.ErrVar[0] = -1, -1
	all := p.Forecasts()
	all[predKey].Values[0]--
	if again, _ := p.Forecast(predKey); again.Values[0] != want || again.ErrVar[0] < 0 {
		t.Fatalf("overwriting returned forecasts changed the predictor's: %+v, want %v first", again, want)
	}

	p.Reset()
	if _, ok := p.Forecast(predKey); ok || len(p.History().Keys()) != 0 {
		t.Fatal("Reset kept a forecast or samples")
	}
	feedN(p, predKey, 0, predictorMinFit+1)
	if _, ok := p.Forecast(predKey); !ok {
		t.Fatal("no forecast from a full window fed after Reset")
	}
}

func TestPredictorWithoutSpecKeepsHistoryOnly(t *testing.T) {
	p, err := NewPredictor("", 8)
	if err != nil {
		t.Fatal(err)
	}
	feedN(p, predKey, 0, 2*predictorMinFit)
	if got := len(p.History().Get(predKey)); got != 2*predictorMinFit || len(p.Forecasts()) != 0 {
		t.Fatalf("%d samples and %d forecasts, want %d and none", got, len(p.Forecasts()), 2*predictorMinFit)
	}
	if _, err := NewPredictor("WAVELET(3)", 8); err == nil {
		t.Fatal("unparsable model spec accepted")
	}
}

// TestPredictorConcurrentFeedAndClose runs what a parallel poll cycle
// does — two poll points feeding one key, a query reading forecasts —
// and then Close beside a feeder (meaningful under -race). Close is
// idempotent, keeps the last forecasts readable, and lets no later
// window start a predictor.
func TestPredictorConcurrentFeedAndClose(t *testing.T) {
	p, _ := NewPredictor("AR(8)", 3)
	var wg sync.WaitGroup
	feed := func(from, n int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			feedN(p, predKey, from, n)
			p.Forecasts()
		}()
	}
	feed(0, 4*predictorMinFit)
	feed(1000, 4*predictorMinFit)
	wg.Wait()
	if _, ok := p.Forecast(predKey); !ok {
		t.Fatal("no forecast for a key two goroutines fed past the window")
	}

	feed(5000, 2*predictorMinFit)
	p.Close()
	p.Close()
	wg.Wait()
	if _, ok := p.Forecast(predKey); !ok {
		t.Fatal("Close dropped the last forecast")
	}
	late := HistKey{From: "late", To: "key"}
	feedN(p, late, 0, predictorMinFit+1)
	if _, ok := p.Forecast(late); ok || len(p.History().Get(late)) != predictorMinFit+1 {
		t.Fatal("after Close a predictor was fitted, or samples stopped reaching the history")
	}
}
