package workload

import (
	"fmt"
	"sync"

	"edgecache/internal/model"
)

// Forecaster is the demand-forecast source of the online controllers: at
// decision time tau it forecasts the request rates of absolute slots
// [from, to). Two implementations ship:
//
//   - *Predictor, the paper's §V-B noisy lookahead oracle (it reads the
//     future of the ground-truth tensor and perturbs it);
//   - *OnlineEstimator, an oracle-free streaming estimator that learns
//     rates from the realised slots alone — the live-deployment mode of
//     package serve, where no future exists to peek at.
//
// Implementations must be safe for concurrent Predict calls and
// call-order independent: the forecast for a given (tau, from, to) must
// not depend on which other forecasts were requested before it, because
// the staggered FHC versions of package online query concurrently and
// interleaved. Truth anchors the forecaster to an instance (online.Run
// rejects a forecaster whose truth is not the instance's demand).
type Forecaster interface {
	// Truth returns the ground-truth demand the forecasts are anchored to
	// (shared, read-only).
	Truth() model.DemandView
	// Predict returns the forecast, made at decision time tau, of demand
	// over absolute slots [from, to), as an independent tensor of length
	// to−from that the caller may mutate.
	Predict(tau, from, to int) (model.DemandView, error)
}

// Forecaster conformance of the oracle predictor.
var _ Forecaster = (*Predictor)(nil)

// DefaultEstimatorAlpha is the EWMA weight of the newest observed slot.
const DefaultEstimatorAlpha = 0.3

// DefaultEstimatorFloor is the clamped-decay floor: a rate that geometric
// decay has pushed below this value snaps to exactly zero. Without the
// clamp a single request would keep its (n, m, k) coordinate active
// forever — (1−α)^t never reaches zero in float64 until it underflows
// through ~700 slots of denormals — polluting candidate pruning and the
// sparse active sets with phantom demand.
const DefaultEstimatorFloor = 1e-9

// OnlineEstimator forecasts demand from the realised request stream: an
// exponentially weighted moving average λ̂ over the closed slots of the
// truth tensor, held flat across the prediction window (the no-trend
// forecast). It is the oracle-free Forecaster of the streaming controller
// (package serve), which appends each slot's empirical rates to the truth
// tensor as the slot closes.
//
// Determinism and restartability: λ̂ at decision time tau is a pure
// function of truth rows [0, tau) — no hidden accumulator state — so a
// controller restored from a snapshot of the realised tensor reproduces
// the exact forecasts of the uninterrupted run, and the batch harness
// (sim.RunWith over the completed tensor) reproduces the live service's
// decisions bit for bit. States per tau are memoised; Predict is safe
// for concurrent use.
//
// Zero-demand windows are first-class: a coordinate (or a whole SBS) that
// sees no arrivals for a full window simply decays by (1−α) per slot —
// there is no normalisation by the arrival count, hence no 0/0 — and the
// decay is clamped (Floor) so long-silent coordinates reach exactly zero
// instead of freezing at denormal rates.
type OnlineEstimator struct {
	truth model.DemandView
	alpha float64
	floor float64

	mu sync.Mutex
	// states[t][n] is the flat (class, content) λ̂ after observing rows
	// [0, t); states[0] is the all-zero prior. Filled lazily and only
	// ever appended to, so memoised values are call-order independent.
	states [][][]float64
}

// NewOnlineEstimator wraps the (progressively filled) truth tensor with
// an EWMA rate estimator. alpha ∈ (0, 1] is the weight of the newest
// slot (0 selects DefaultEstimatorAlpha); floor < 0 selects
// DefaultEstimatorFloor, 0 disables the decay clamp.
func NewOnlineEstimator(truth model.DemandView, alpha, floor float64) (*OnlineEstimator, error) {
	if truth == nil {
		return nil, fmt.Errorf("workload: nil truth demand")
	}
	if alpha == 0 {
		alpha = DefaultEstimatorAlpha
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("workload: estimator alpha = %g, want (0, 1]", alpha)
	}
	if floor < 0 {
		floor = DefaultEstimatorFloor
	}
	return &OnlineEstimator{truth: truth, alpha: alpha, floor: floor}, nil
}

// Alpha returns the EWMA weight of the newest slot.
func (e *OnlineEstimator) Alpha() float64 { return e.alpha }

// Truth implements Forecaster.
func (e *OnlineEstimator) Truth() model.DemandView { return e.truth }

// Predict implements Forecaster: the EWMA state after truth rows
// [0, min(max(tau, 0), T)) — negative tau (the start-up solves of
// staggered FHC versions) and tau = 0 see the zero prior — held constant
// over the window.
//
// Causality contract: the caller must not ask for a tau whose prefix
// rows are not yet final (the streaming controller only queries tau up
// to the number of closed slots).
func (e *OnlineEstimator) Predict(tau, from, to int) (model.DemandView, error) {
	d := e.truth
	if from < 0 || to > d.T() || from >= to {
		return nil, fmt.Errorf("workload: estimator window [%d, %d) outside [0, %d)", from, to, d.T())
	}
	upto := tau
	if upto < 0 {
		upto = 0
	}
	if upto > d.T() {
		upto = d.T()
	}
	state := e.stateAt(upto)
	out := model.NewDemand(to-from, d.Classes(), d.K())
	for t := 0; t < to-from; t++ {
		for n := 0; n < d.N(); n++ {
			row := state[n]
			k := d.K()
			for m := 0; m < d.Classes()[n]; m++ {
				base := m * k
				for kk := 0; kk < k; kk++ {
					if v := row[base+kk]; v != 0 {
						out.Set(t, n, m, kk, v)
					}
				}
			}
		}
	}
	return out, nil
}

// Rates returns λ̂ after observing rows [0, upto) as per-SBS flat
// (class, content) rows. The result is shared memoised state: read-only.
func (e *OnlineEstimator) Rates(upto int) [][]float64 {
	if upto < 0 {
		upto = 0
	}
	if t := e.truth.T(); upto > t {
		upto = t
	}
	return e.stateAt(upto)
}

// stateAt returns the memoised EWMA state after t observed rows,
// computing forward from the highest cached prefix on first use.
func (e *OnlineEstimator) stateAt(t int) [][]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.states) == 0 {
		zero := make([][]float64, e.truth.N())
		for n := range zero {
			zero[n] = make([]float64, e.truth.Classes()[n]*e.truth.K())
		}
		e.states = append(e.states, zero)
	}
	var scratch []float64
	for len(e.states) <= t {
		slot := len(e.states) - 1 // observe truth row `slot`
		prev := e.states[slot]
		next := make([][]float64, len(prev))
		for n := range prev {
			next[n] = append([]float64(nil), prev[n]...)
			scratch = e.truth.CopySlot(scratch, slot, n)
			row := next[n]
			for i, v := range scratch {
				nv := row[i] + e.alpha*(v-row[i])
				if e.floor > 0 && nv < e.floor {
					// Clamped decay: silence drives the estimate to an
					// exact zero instead of an ever-shrinking denormal.
					nv = 0
				}
				row[i] = nv
			}
		}
		e.states = append(e.states, next)
	}
	return e.states[t]
}
