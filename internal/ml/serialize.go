package ml

import (
	"encoding/json"
	"errors"
	"fmt"
)

// mlpState is the serialized form of a trained MLP (weights and scalers;
// optimizer state is not persisted — a loaded model predicts, it does not
// resume training).
type mlpState struct {
	Dims       []int       `json:"dims"` // layer widths, input..output
	Weights    [][]float64 `json:"weights"`
	Biases     [][]float64 `json:"biases"`
	FeatMean   []float64   `json:"feat_mean"`
	FeatStd    []float64   `json:"feat_std"`
	TargetMean float64     `json:"target_mean"`
	TargetStd  float64     `json:"target_std"`
}

// MarshalJSON serializes a trained MLP. It errors if the model is unfit.
func (m *MLP) MarshalJSON() ([]byte, error) {
	if m.layers == nil {
		return nil, errors.New("ml: marshaling an unfit MLP")
	}
	st := mlpState{
		Dims:       []int{m.layers[0].in},
		FeatMean:   m.scaler.Mean,
		FeatStd:    m.scaler.Std,
		TargetMean: m.targets.mean,
		TargetStd:  m.targets.std,
	}
	for _, l := range m.layers {
		st.Dims = append(st.Dims, l.out)
		st.Weights = append(st.Weights, l.W)
		st.Biases = append(st.Biases, l.B)
	}
	return json.Marshal(st)
}

// UnmarshalJSON restores a trained MLP written by MarshalJSON. It refuses a
// state that could not predict: mismatched shapes or a non-positive scale.
// (encoding/json itself refuses NaN, ±Inf and out-of-range literals.)
func (m *MLP) UnmarshalJSON(data []byte) error {
	var st mlpState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.Dims) < 2 {
		return fmt.Errorf("ml: MLP state has %d dims", len(st.Dims))
	}
	if len(st.Weights) != len(st.Dims)-1 || len(st.Biases) != len(st.Dims)-1 {
		return fmt.Errorf("ml: MLP state layer count mismatch")
	}
	layers := make([]denseLayer, len(st.Dims)-1)
	for l := range layers {
		in, out := st.Dims[l], st.Dims[l+1]
		if len(st.Weights[l]) != in*out || len(st.Biases[l]) != out {
			return fmt.Errorf("ml: MLP state layer %d has wrong shapes", l)
		}
		layers[l] = denseLayer{in: in, out: out, W: st.Weights[l], B: st.Biases[l]}
	}
	if len(st.FeatMean) != st.Dims[0] || len(st.FeatStd) != st.Dims[0] {
		return fmt.Errorf("ml: MLP state scaler width mismatch")
	}
	for j, v := range st.FeatStd {
		if !(v > 0) {
			return fmt.Errorf("ml: MLP state feature %d std %v", j, v)
		}
	}
	if st.TargetStd <= 0 {
		return fmt.Errorf("ml: MLP state target std %v", st.TargetStd)
	}
	m.layers = layers
	m.scaler = &Scaler{Mean: st.FeatMean, Std: st.FeatStd}
	m.targets = targetScaler{mean: st.TargetMean, std: st.TargetStd}
	m.initScratch()
	return nil
}
