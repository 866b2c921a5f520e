package collector

import (
	"sync"

	"remos/internal/rps"
)

// predictorMinFit is the history a key must hold before its model is
// fitted.
const predictorMinFit = 64

// Predictor is the collector-side streaming prediction of Section 2.3:
// "as each sample became available, it would be fed to a directly
// attached streaming predictor. The collector would then make these
// predictions available to modelers that were interested." It is a
// collector's measurement History plus, when a model spec is given, one
// rps.Stream per key: fitted once predictorMinFit samples are held and
// advanced by every sample after, so one fit is amortized over every
// consumer of every later query. Safe for concurrent use: two poll
// points measuring one link from opposite ends may feed one key at once.
type Predictor struct {
	hist    *History
	fitter  rps.Fitter // nil without a model spec: history only
	horizon int

	mu      sync.Mutex
	streams map[HistKey]*rps.Stream
	closed  bool
}

// NewPredictor returns an empty Predictor forecasting horizon steps
// ahead with the RPS model spec names (e.g. "AR(16)"). The empty spec
// keeps history only; a spec rps cannot parse is an error.
func NewPredictor(spec string, horizon int) (*Predictor, error) {
	p := &Predictor{hist: NewHistory(0), horizon: horizon}
	if spec != "" {
		fitter, err := rps.ParseFitter(spec)
		if err != nil {
			return nil, err
		}
		p.fitter = fitter
	}
	return p, nil
}

// History returns the measurement store Feed appends to.
func (p *Predictor) History() *History { return p.hist }

// Feed records one sample and advances the key's predictor with it. The
// sample that completes the fit window is consumed by the fit itself (it
// is in the history the model is fitted on); forecasts start with the
// sample after it.
func (p *Predictor) Feed(k HistKey, s Sample) {
	p.hist.Add(k, s)
	if p.fitter == nil {
		return
	}
	p.mu.Lock()
	st, closed := p.streams[k], p.closed
	p.mu.Unlock()
	if st != nil {
		st.Observe(s.Bits)
		return
	}
	if closed {
		return
	}
	series := p.hist.Get(k)
	if len(series) < predictorMinFit {
		return
	}
	model, err := p.fitter.Fit(Values(series))
	if err != nil {
		return // degenerate history; a later sample retries
	}
	p.mu.Lock()
	if p.streams[k] == nil && !p.closed { // else another feeder's fit won
		if p.streams == nil {
			p.streams = make(map[HistKey]*rps.Stream)
		}
		p.streams[k] = rps.NewStream(model, p.horizon)
	}
	p.mu.Unlock()
}

// Forecast returns the key's current prediction as a copy the caller
// owns, if its predictor has been fitted and fed since.
func (p *Predictor) Forecast(k HistKey) (Forecast, bool) {
	p.mu.Lock()
	st := p.streams[k]
	p.mu.Unlock()
	if st == nil {
		return Forecast{}, false
	}
	pred, n := st.Last()
	if n == 0 || len(pred.Values) == 0 {
		return Forecast{}, false
	}
	return Forecast{
		Values: append([]float64(nil), pred.Values...),
		ErrVar: append([]float64(nil), pred.ErrVar...),
	}, true
}

// Forecasts returns every key's current prediction (for query results).
func (p *Predictor) Forecasts() map[HistKey]Forecast {
	p.mu.Lock()
	keys := make([]HistKey, 0, len(p.streams))
	for k := range p.streams {
		keys = append(keys, k)
	}
	p.mu.Unlock()
	out := make(map[HistKey]Forecast, len(keys))
	for _, k := range keys {
		if fc, ok := p.Forecast(k); ok {
			out[k] = fc
		}
	}
	return out
}

// Reset forgets every sample and predictor, as a collector dropping its
// dynamic caches does; feeding starts over from an empty history.
func (p *Predictor) Reset() {
	p.hist.reset()
	p.mu.Lock()
	for _, st := range p.streams {
		st.Close()
	}
	p.streams = nil
	p.mu.Unlock()
}

// Close ends prediction: the streams are closed (their last forecasts
// stay readable) and no new one is fitted. Samples fed afterwards still
// reach the history. Idempotent.
func (p *Predictor) Close() {
	p.mu.Lock()
	p.closed = true
	for _, st := range p.streams {
		st.Close()
	}
	p.mu.Unlock()
}
