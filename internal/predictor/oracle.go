package predictor

import (
	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/sim"
)

// LatencyModel predicts the latency of an operator group. The trained
// Predictor implements it; Oracle provides a perfect-prediction variant used
// in tests and in the predictor-quality ablation.
type LatencyModel interface {
	Predict(Group) float64
	PredictBatch([]Group) []float64
}

// Oracle is an exact latency model: it answers queries by simulating the
// group on a private noise-free device. It represents the paper's
// hypothetical perfect predictor and bounds what the MLP can achieve.
// SMCap/MemCap (default 1 = full device) let it model a MIG instance: the
// duration model must reflect the capacity the executor actually runs on.
// Specs, when non-nil, is the host's kernel-spec table, bound to Profile;
// nil derives every group's specs afresh.
type Oracle struct {
	Profile gpusim.Profile
	SMCap   float64
	MemCap  float64
	Specs   *dnn.Specs
}

// ForDevice returns the oracle of the device: matched to its profile and
// (possibly partitioned) capacity, reading specs, the host's kernel-spec
// table (bound to the device's profile, or nil). It is the one place that
// picks the model a device predicts with when its host is given none.
func ForDevice(dev *gpusim.Device, specs *dnn.Specs) Oracle {
	return Oracle{Profile: dev.Profile(), SMCap: dev.SMCapacity(), MemCap: dev.MemCapacity(), Specs: specs}
}

// Predict implements LatencyModel.
func (o Oracle) Predict(g Group) float64 {
	eng := sim.NewEngine()
	dev := gpusim.New(eng, o.Profile)
	if (o.SMCap > 0 && o.SMCap < 1) || (o.MemCap > 0 && o.MemCap < 1) {
		sm, mem := o.SMCap, o.MemCap
		if sm <= 0 {
			sm = 1
		}
		if mem <= 0 {
			mem = 1
		}
		dev = dev.Partition(sm, mem)
	}
	return MeasureOn(g, dev, o.Specs)
}

// PredictBatch implements LatencyModel.
func (o Oracle) PredictBatch(gs []Group) []float64 {
	out := make([]float64, len(gs))
	for i, g := range gs {
		out[i] = o.Predict(g)
	}
	return out
}

var _ LatencyModel = (*Predictor)(nil)
var _ LatencyModel = Oracle{}
