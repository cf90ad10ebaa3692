package predictor

import (
	"encoding/json"
	"fmt"
	"io"

	"abacus/internal/ml"
)

// predictorState serializes a trained Predictor: codec geometry plus the
// MLP weights. Only MLP-backed predictors (optionally log-target wrapped)
// are persistable; the baselines exist for the Figure 10 comparison only.
type predictorState struct {
	NumModels int             `json:"num_models"`
	Slots     int             `json:"slots"`
	LogTarget bool            `json:"log_target"`
	MLP       json.RawMessage `json:"mlp"`
}

// Save writes the predictor as JSON. It errors for non-MLP models.
func (p *Predictor) Save(w io.Writer) error {
	st := predictorState{NumModels: p.codec.NumModels, Slots: p.codec.Slots}
	var mlp *ml.MLP
	switch m := p.model.(type) {
	case *ml.MLP:
		mlp = m
	case *logModel:
		inner, ok := m.inner.(*ml.MLP)
		if !ok {
			return fmt.Errorf("predictor: cannot persist %T", m.inner)
		}
		st.LogTarget = true
		mlp = inner
	default:
		return fmt.Errorf("predictor: cannot persist %T", p.model)
	}
	raw, err := json.Marshal(mlp)
	if err != nil {
		return err
	}
	st.MLP = raw
	enc := json.NewEncoder(w)
	return enc.Encode(st)
}

// Load restores a predictor written by Save. It refuses a state whose MLP
// could not serve the codec it names, so a command fails at start-up rather
// than on its first prediction.
func Load(r io.Reader) (*Predictor, error) {
	var st predictorState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, err
	}
	if st.NumModels <= 0 || st.Slots <= 0 {
		return nil, fmt.Errorf("predictor: corrupt state (models=%d slots=%d)", st.NumModels, st.Slots)
	}
	mlp := &ml.MLP{}
	if err := json.Unmarshal(st.MLP, mlp); err != nil {
		return nil, err
	}
	codec := Codec{NumModels: st.NumModels, Slots: st.Slots}
	if mlp.InputWidth() != codec.Width() {
		return nil, fmt.Errorf("predictor: MLP input width %d, codec width %d", mlp.InputWidth(), codec.Width())
	}
	var model ml.Regressor = mlp
	if st.LogTarget {
		model = &logModel{inner: mlp}
	}
	return &Predictor{codec: codec, model: model}, nil
}
