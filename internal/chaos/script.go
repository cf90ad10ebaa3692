// Package chaos is the deterministic fault-injection harness: it replays a
// seeded arrival trace through the full Abacus runtime — admission control,
// degraded-mode recovery, and a virtual retrying client included — while a
// fault script opens and closes fault windows on the virtual clock. Because
// everything (arrivals, faults, retries, recovery) lives in simulated time,
// a scenario's report is byte-identical for a given seed and script at any
// parallelism, which is what lets CI assert QoS floors under faults instead
// of eyeballing flaky wall-clock runs.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"abacus/internal/dnn"
)

// Fault kinds a script may open windows for.
const (
	// KindGPUThrottle cuts the simulated GPU clock: Magnitude is the
	// remaining speed fraction in (0, 1] (0.5 = half speed), Mem optionally
	// the remaining memory-bandwidth fraction (default: same as Magnitude).
	KindGPUThrottle = "gpu_throttle"
	// KindLaunchStall delays every kernel launch by Magnitude virtual ms.
	KindLaunchStall = "launch_stall"
	// KindPredictorBias multiplies every latency prediction by Magnitude
	// (0.5 = the predictor reports half the true latency).
	KindPredictorBias = "predictor_bias"
	// KindPredictorNoise adds seeded multiplicative noise of half-width
	// Magnitude in [0, 1) to every prediction.
	KindPredictorNoise = "predictor_noise"
	// KindDrop loses each client request in transit with probability
	// Magnitude (the response never arrives; the client may retry).
	KindDrop = "drop"
	// KindDuplicate re-sends each client request with probability Magnitude
	// (same idempotency key — the gateway must suppress the double).
	KindDuplicate = "duplicate"
	// KindMalformed corrupts each request body with probability Magnitude
	// (the gateway rejects it without admission; clients do not retry 400s).
	KindMalformed = "malformed"
)

var kinds = map[string]bool{
	KindGPUThrottle:    true,
	KindLaunchStall:    true,
	KindPredictorBias:  true,
	KindPredictorNoise: true,
	KindDrop:           true,
	KindDuplicate:      true,
	KindMalformed:      true,
}

// Window is one fault active over [Start, End) virtual ms.
type Window struct {
	Kind      string  `json:"kind"`
	Start     float64 `json:"start_ms"`
	End       float64 `json:"end_ms"`
	Magnitude float64 `json:"magnitude"`
	// Mem is KindGPUThrottle's optional separate memory-bandwidth fraction;
	// 0 means "same as Magnitude".
	Mem float64 `json:"mem,omitempty"`
	// Model, for KindPredictorBias only, scopes the bias to one model's
	// predictions (short name as printed by dnn.ModelID.String, e.g.
	// "Res152") — the shape of a predictor mistrained for a single service.
	// Empty biases every prediction.
	Model string `json:"model,omitempty"`
	// Node scopes a device fault (gpu_throttle, launch_stall) or predictor
	// fault (predictor_bias, predictor_noise) to one node of a cluster
	// scenario, mirroring Model scoping: a throttled GPU is a per-node
	// event, and the healthy replicas must not see it. Default 0 targets
	// the first node, which is also the only node of single-node runs.
	// Request faults (drop, duplicate, malformed) happen before routing, so
	// they cannot be node-scoped.
	Node int `json:"node,omitempty"`
}

func (w Window) validate() error {
	if !kinds[w.Kind] {
		return fmt.Errorf("chaos: unknown fault kind %q", w.Kind)
	}
	if !(w.Start >= 0) || !(w.End > w.Start) {
		return fmt.Errorf("chaos: %s window [%v, %v) is not a forward interval", w.Kind, w.Start, w.End)
	}
	if w.Model != "" {
		if w.Kind != KindPredictorBias {
			return fmt.Errorf("chaos: %s window scoped to model %q, only %s supports model scoping", w.Kind, w.Model, KindPredictorBias)
		}
		if _, err := dnn.ModelIDByName(w.Model); err != nil {
			return fmt.Errorf("chaos: %s window: %w", w.Kind, err)
		}
	}
	if w.Node < 0 {
		return fmt.Errorf("chaos: %s window targets negative node %d", w.Kind, w.Node)
	}
	if w.Node != 0 {
		switch w.Kind {
		case KindDrop, KindDuplicate, KindMalformed:
			return fmt.Errorf("chaos: %s faults act before routing and cannot be node-scoped", w.Kind)
		}
	}
	m := w.Magnitude
	switch w.Kind {
	case KindGPUThrottle:
		if !(m > 0) || m > 1 {
			return fmt.Errorf("chaos: gpu_throttle magnitude %v outside (0, 1]", m)
		}
		if w.Mem != 0 && (!(w.Mem > 0) || w.Mem > 1) {
			return fmt.Errorf("chaos: gpu_throttle mem fraction %v outside (0, 1]", w.Mem)
		}
	case KindLaunchStall:
		if !(m >= 0) {
			return fmt.Errorf("chaos: launch_stall magnitude %v must be >= 0 ms", m)
		}
	case KindPredictorBias:
		if !(m > 0) {
			return fmt.Errorf("chaos: predictor_bias magnitude %v must be positive", m)
		}
	case KindPredictorNoise:
		if !(m >= 0) || m >= 1 {
			return fmt.Errorf("chaos: predictor_noise magnitude %v outside [0, 1)", m)
		}
	case KindDrop, KindDuplicate, KindMalformed:
		if !(m >= 0) || m > 1 {
			return fmt.Errorf("chaos: %s probability %v outside [0, 1]", w.Kind, m)
		}
	}
	return nil
}

// Script is an ordered set of fault windows.
type Script struct {
	Windows []Window `json:"windows"`
}

// Validate checks every window and rejects overlapping windows of the same
// kind and model scope (their reverts would race; sequential windows
// express the same scenarios unambiguously). A model-scoped predictor_bias
// window may overlap a global one only if they target different state,
// which they never do — the global window rewrites the same bias the scoped
// one composes with — so kind+model is the overlap key. Node scoping widens
// the key the same way: windows on different nodes touch different devices
// and may overlap freely.
func (s Script) Validate() error {
	for _, w := range s.Windows {
		if err := w.validate(); err != nil {
			return err
		}
	}
	byKind := map[string][]Window{}
	for _, w := range s.Windows {
		key := w.Kind
		if w.Model != "" {
			key += ":" + w.Model
		}
		if w.Node != 0 {
			key += fmt.Sprintf("@%d", w.Node)
		}
		byKind[key] = append(byKind[key], w)
	}
	for kind, ws := range byKind {
		sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
		for i := 1; i < len(ws); i++ {
			if ws[i].Start < ws[i-1].End {
				return fmt.Errorf("chaos: %s windows [%v, %v) and [%v, %v) overlap",
					kind, ws[i-1].Start, ws[i-1].End, ws[i].Start, ws[i].End)
			}
		}
	}
	return nil
}

// active reports whether a window of the given kind covers time t and, if
// so, returns it.
func (s Script) active(kind string, t float64) (Window, bool) {
	for _, w := range s.Windows {
		if w.Kind == kind && t >= w.Start && t < w.End {
			return w, true
		}
	}
	return Window{}, false
}

// ParseScript reads a fault script: a JSON object with a "windows" array.
// Decoding is strict — an unknown field or any data after the object is an
// error — so a misspelt key cannot silently become a no-op fault.
func ParseScript(data []byte) (Script, error) {
	var s Script
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Script{}, fmt.Errorf("chaos: parsing fault script (scripts are JSON): %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Script{}, fmt.Errorf("chaos: data after the JSON fault script")
	}
	if err := s.Validate(); err != nil {
		return Script{}, err
	}
	return s, nil
}
