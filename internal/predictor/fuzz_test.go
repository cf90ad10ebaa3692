package predictor

import (
	"testing"

	"abacus/internal/dnn"
)

// FuzzCodecEncode exercises the feature encoder with arbitrary entry
// parameters: invalid groups must be rejected by Validate (and panic in
// Encode), valid groups must round-trip through Decode.
func FuzzCodecEncode(f *testing.F) {
	f.Add(0, 0, 10, 8, 0)
	f.Add(int(dnn.Bert), 5, 100, 32, 64)
	f.Add(int(dnn.VGG19), 0, 42, 4, 0)
	f.Add(-1, 0, 1, 1, 0)
	f.Add(int(dnn.ResNet152), 500, 514, 16, 0)
	codec := NewCodec()
	f.Fuzz(func(t *testing.T, model, start, end, batch, seq int) {
		if model < 0 || model >= int(dnn.NumModels) {
			return
		}
		e := Entry{Model: dnn.ModelID(model), OpStart: start, OpEnd: end, Batch: batch, SeqLen: seq}
		g := Group{e}
		if err := g.Validate(); err != nil {
			// Invalid groups must be refused by Encode via panic.
			defer func() {
				if recover() == nil {
					t.Error("Encode accepted an invalid group")
				}
			}()
			codec.Encode(g)
			return
		}
		x := codec.Encode(g)
		if len(x) != codec.Width() {
			t.Fatalf("width %d != %d", len(x), codec.Width())
		}
		back, err := codec.Decode(x)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(back) != 1 || back[0] != e {
			t.Fatalf("round trip %+v != %+v", back, e)
		}
	})
}

// FuzzSamplerSeeds verifies that any seed yields structurally valid,
// measurable samples.
func FuzzSamplerSeeds(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(1))
	f.Add(int64(-7))
	f.Add(int64(1 << 40))
	f.Fuzz(func(t *testing.T, seed int64) {
		cfg := DefaultSamplerConfig()
		cfg.Seed = seed
		cfg.Runs = 1
		sample := Collect([]dnn.ModelID{dnn.ResNet50, dnn.Bert}, 2, 1, cfg)[0]
		if err := sample.Group.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sample.Latency <= 0 {
			t.Fatalf("seed %d: latency %v", seed, sample.Latency)
		}
	})
}
