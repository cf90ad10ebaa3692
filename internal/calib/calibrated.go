// Calibrated is the predictor.LatencyModel decorator that publishes the
// tracker's corrections: wrap the serving model once and both the admission
// controller and the scheduler's group sizing consume feedback-corrected
// predictions without knowing calibration exists.
package calib

import "abacus/internal/predictor"

// Calibrated wraps a LatencyModel with the tracker's per-service affine
// corrections. Like every model in the repro it must only be called from
// the loop goroutine that owns the runtime (and the tracker).
type Calibrated struct {
	inner predictor.LatencyModel
	tr    *Tracker
}

// NewCalibrated wraps inner with tracker-driven correction.
func NewCalibrated(inner predictor.LatencyModel, tr *Tracker) *Calibrated {
	if inner == nil {
		panic("calib: Calibrated requires an inner model")
	}
	if tr == nil {
		panic("calib: Calibrated requires a tracker")
	}
	return &Calibrated{inner: inner, tr: tr}
}

// Predict implements LatencyModel.
func (c *Calibrated) Predict(g predictor.Group) float64 {
	return c.tr.CorrectGroup(g, c.inner.Predict(g))
}

// PredictBatch implements LatencyModel.
func (c *Calibrated) PredictBatch(gs []predictor.Group) []float64 {
	out := c.inner.PredictBatch(gs)
	for i, g := range gs {
		out[i] = c.tr.CorrectGroup(g, out[i])
	}
	return out
}

var _ predictor.LatencyModel = (*Calibrated)(nil)
