// Pins the hand-rolled /v1/infer wire codec to encoding/json: the decoder
// must accept and reject the same bodies with the same resulting fields, the
// encoder must produce byte-identical output, and the combined decode →
// validate → decide → encode path must not allocate — the property the
// ingest hot path's throughput rests on.
package server

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/realtime"
)

// parseReference decodes body the way the pre-codec gateway did
// (json.Decoder semantics: trailing data after the object is ignored).
func parseReference(body []byte) (InferRequest, error) {
	var req InferRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// wireBodies are request bodies both decoders must treat alike; they seed
// FuzzWireRequestParse too.
var wireBodies = []string{
	`{}`,
	`{"model":"Res50","batch":4}`,
	`{"model":"Res50","batch":4,"seqlen":64,"deadline_ms":12.5,"request_id":"rq-1","attempt":2}`,
	"\t {\n\"model\" : \"Res50\" ,\n \"batch\": 1 }\r\n",
	`{"MODEL":"Res50","Batch":2,"SeqLen":8,"Deadline_MS":3,"REQUEST_ID":"x","ATTEMPT":1}`,
	`{"model":"a\"b\\c\/d\nx\tz\u0041\u00e9"}`,
	`{"request_id":"\ud83d\ude00 pair \ud800 lone \udc00 low"}`,
	`{"model":"Res50","extra":{"nested":[1,2,{"k":"v"}],"b":true,"n":null},"batch":4}`,
	`{"model":null,"batch":4,"request_id":null}`,
	`{"batch":-3,"deadline_ms":-1.5}`,
	`{"deadline_ms":1e3,"batch":12}`,
	`{"deadline_ms":2.5e-2}`,
	`{"deadline_ms":0.125,"attempt":0}`,
	`{"model":"Res50","batch":4}   trailing garbage ignored by Decode`,
	`{"unknown":"only"}`,
	`{"unknown":12.5e+7}`,
	"{\"model\":\"Res\xff50\",\"request_id\":\"id\xc3\"}", // invalid UTF-8 decodes to U+FFFD
	"{\"request_id\":\"esc\\n\xe2\x82 then \xed\xa0\x80 surrogate\"}",
	`null`,
	` null trailing`,
	`{"batch":2147483648,"attempt":-9223372036854775808}`,
	`{"ſeqlen":8,"deadline_mſ":2}`, // keys match under Unicode case folding
	// Malformed: both decoders must reject.
	`{not json`,
	``,
	`   `,
	`[1,2,3]`,
	`"just a string"`,
	`{"model":}`,
	`{"model":"unterminated`,
	`{"model":"bad escape \q"}`,
	`{"model":"trunc \u12"}`,
	`{"batch":}`,
	`{"batch":1.5}`,
	`{"batch":"4"}`,
	`{"batch":1e2}`,
	`{"batch":99999999999999999999}`,
	`{"deadline_ms":.5}`,
	`{"deadline_ms":1.}`,
	`{"deadline_ms":1e}`,
	`{"model":"Res50" "batch":1}`,
	`{"model":"Res50",}`,
	`{"model" "Res50"}`,
	`{"batch":nul}`,
	`{"batch":truex}`,
	`{"x":"\0","model":"Res50","batch":4}`,
	"{\"x\":\"raw \x01 control\",\"model\":\"Res50\",\"batch\":4}",
	"{\"x\":{\"key \x1f\":1},\"batch\":4}",
	`{"model":"Res50","batch":04}`,
	`{"batch":-01}`,
	`{"x":[00],"batch":4}`,
	`{"batch":9223372036854775808}`,
	`nul`,
}

// checkParse holds WireRequest.Parse to encoding/json on one body: both
// accept it with the same fields, or both reject it. The codec's one
// deliberate divergence is its nesting bound on skipped values.
func checkParse(t *testing.T, w *WireRequest, body []byte) {
	t.Helper()
	ref, refErr := parseReference(body)
	gotErr := w.Parse(body)
	if refErr == nil && gotErr != nil && strings.Contains(gotErr.Error(), "nested too deeply") {
		return
	}
	if (refErr == nil) != (gotErr == nil) {
		t.Errorf("%q: encoding/json err=%v, codec err=%v", body, refErr, gotErr)
		return
	}
	if refErr != nil {
		return
	}
	got := InferRequest{
		Model:      string(w.Model),
		Batch:      w.Batch,
		SeqLen:     w.SeqLen,
		DeadlineMS: w.DeadlineMS,
		RequestID:  string(w.RequestID),
		Attempt:    w.Attempt,
	}
	if got != ref {
		t.Errorf("%q:\n codec %+v\n  json %+v", body, got, ref)
	}
}

func TestWireRequestParseMatchesEncodingJSON(t *testing.T) {
	var w WireRequest
	for _, body := range wireBodies {
		checkParse(t, &w, []byte(body))
	}
}

// FuzzWireRequestParse holds the decoder to json.Decoder on any body.
func FuzzWireRequestParse(f *testing.F) {
	for _, body := range wireBodies {
		f.Add([]byte(body))
	}
	var w WireRequest
	f.Fuzz(func(t *testing.T, body []byte) { checkParse(t, &w, body) })
}

// TestWireRequestParseDeepNesting pins the skip-depth bound: unknown fields
// may nest, but a hostile body cannot recurse the parser to death.
func TestWireRequestParseDeepNesting(t *testing.T) {
	var w WireRequest
	ok := `{"x":` + strings.Repeat(`[`, 60) + strings.Repeat(`]`, 60) + `,"batch":2}`
	if err := w.Parse([]byte(ok)); err != nil || w.Batch != 2 {
		t.Fatalf("60-deep unknown value: err=%v batch=%d", err, w.Batch)
	}
	deep := `{"x":` + strings.Repeat(`[`, 500) + strings.Repeat(`]`, 500) + `}`
	if err := w.Parse([]byte(deep)); err == nil {
		t.Fatal("500-deep unknown value parsed; want depth error")
	}
}

// inferResponses are responses both encoders must render alike; they seed
// FuzzAppendInferResponse too.
var inferResponses = []InferResponse{
	{},
	{Model: "Res50", Batch: 4, Accepted: true, ArrivalMS: 12.25, FinishMS: 31.5,
		LatencyMS: 19.25, DeadlineMS: 40, PredictedMS: 18.728515625},
	{Model: "Bert", Batch: 2, SeqLen: 64, Accepted: true, Violated: true, Degraded: true,
		LatencyMS: 104.9999999999},
	{Model: "Res50", Batch: 1, Reason: "queue_full", RetryAfterMS: 1234.5, Error: "shed"},
	{Model: "x", Accepted: true, Dropped: true, Duplicate: true, Reason: "dropped"},
	{Error: "bad JSON: offset 0: expected object"},
	{Model: `quotes " backslash \ html <>&`, Error: "control \x01\x1f tab\tnewline\n"},
	{Model: "unicode é 語 \u2028 \u2029 emoji 😀", Error: string([]byte{'b', 0xff, 'c'})},
	{ArrivalMS: 1e-9, FinishMS: 1e21, LatencyMS: -1e-9, DeadlineMS: -1e21,
		PredictedMS: 3.5e-7, RetryAfterMS: 0.0000011},
	{ArrivalMS: 1e20, FinishMS: 1e-6, LatencyMS: math.MaxFloat64,
		PredictedMS: 5e-324, DeadlineMS: -0.25},
	{Batch: -7, SeqLen: 128},
	{Model: "backspace \b formfeed \f", Reason: "\x00\x7f"},
}

// checkAppend holds AppendInferResponse to json.Marshal plus the Encoder's
// newline on one response.
func checkAppend(t *testing.T, r InferResponse) {
	t.Helper()
	want, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if got := AppendInferResponse(nil, &r); !bytes.Equal(got, want) {
		t.Errorf("%+v:\n codec %q\n  json %q", r, got, want)
	}
}

func TestAppendInferResponseMatchesEncodingJSON(t *testing.T) {
	for _, r := range inferResponses {
		checkAppend(t, r)
	}
}

// FuzzAppendInferResponse holds the encoder to json.Marshal on any field
// values json.Marshal renders: every one but NaN and ±Inf floats. flags
// packs the five bools.
func FuzzAppendInferResponse(f *testing.F) {
	for _, r := range inferResponses {
		var flags uint8
		for i, b := range []bool{r.Accepted, r.Dropped, r.Violated, r.Duplicate, r.Degraded} {
			if b {
				flags |= 1 << i
			}
		}
		f.Add(r.Model, r.Reason, r.Error, r.Batch, r.SeqLen, flags,
			r.ArrivalMS, r.FinishMS, r.LatencyMS, r.DeadlineMS, r.PredictedMS, r.RetryAfterMS)
	}
	f.Fuzz(func(t *testing.T, model, reason, errStr string, batch, seqLen int, flags uint8,
		arrival, finish, latency, deadline, predicted, retryAfter float64) {
		for _, v := range []float64{arrival, finish, latency, deadline, predicted, retryAfter} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("encoding/json renders no NaN or Inf")
			}
		}
		checkAppend(t, InferResponse{
			Model: model, Batch: batch, SeqLen: seqLen, Reason: reason, Error: errStr,
			Accepted: flags&1 != 0, Dropped: flags&2 != 0, Violated: flags&4 != 0,
			Duplicate: flags&8 != 0, Degraded: flags&16 != 0,
			ArrivalMS: arrival, FinishMS: finish, LatencyMS: latency, DeadlineMS: deadline,
			PredictedMS: predicted, RetryAfterMS: retryAfter,
		})
	})
}

// TestInferHotPathZeroAllocs asserts the steady-state ingest path — decode,
// validate, admission verdict, encode — costs zero allocations per request
// once the scratch is warm. TestHandlerAllocsCeiling bounds the full
// handler round trip around it.
func TestInferHotPathZeroAllocs(t *testing.T) {
	s, err := New(Config{Models: []dnn.ModelID{dnn.ResNet50, dnn.Bert}, Speedup: realtime.Unpaced})
	if err != nil {
		t.Fatal(err)
	}
	n := s.all()[0]
	body := []byte(`{"model":"Res50","batch":4,"deadline_ms":500}`)
	sc := getScratch()
	defer putScratch(sc)
	var resp InferResponse
	allocs := testing.AllocsPerRun(1000, func() {
		if err := sc.req.Parse(body); err != nil {
			panic(err)
		}
		svc, in, err := s.validate(&sc.req)
		if err != nil {
			panic(err)
		}
		d := n.Adm.Decide(n.RT.Engine().Now(), 0, in, sc.req.DeadlineMS)
		resp = InferResponse{Model: s.modelName[svc], Batch: sc.req.Batch, SeqLen: sc.req.SeqLen}
		resp.Accepted = d.OK
		resp.PredictedMS = d.PredMS
		sc.out = AppendInferResponse(sc.out[:0], &resp)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.1f/op; want 0", allocs)
	}
	if !resp.Accepted {
		t.Fatalf("probe request unexpectedly rejected: %+v", resp)
	}
}

func BenchmarkInferDecode(b *testing.B) {
	body := []byte(`{"model":"Res50","batch":4,"seqlen":0,"deadline_ms":100,"attempt":0}`)
	var w WireRequest
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.Parse(body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInferEncode(b *testing.B) {
	resp := InferResponse{Model: "Res50", Batch: 4, Accepted: true, ArrivalMS: 12.25,
		FinishMS: 31.5, LatencyMS: 19.25, DeadlineMS: 40, PredictedMS: 18.7}
	var out []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out = AppendInferResponse(out[:0], &resp)
	}
}

// BenchmarkInferHotPath is the full per-request ingest cost minus the HTTP
// transport: decode, validate, admission verdict, encode.
func BenchmarkInferHotPath(b *testing.B) {
	s, err := New(Config{Models: []dnn.ModelID{dnn.ResNet50}, Speedup: realtime.Unpaced})
	if err != nil {
		b.Fatal(err)
	}
	n := s.all()[0]
	body := []byte(`{"model":"Res50","batch":4,"deadline_ms":500}`)
	sc := getScratch()
	defer putScratch(sc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sc.req.Parse(body); err != nil {
			b.Fatal(err)
		}
		svc, in, err := s.validate(&sc.req)
		if err != nil {
			b.Fatal(err)
		}
		d := n.Adm.Decide(n.RT.Engine().Now(), 0, in, sc.req.DeadlineMS)
		resp := InferResponse{Model: s.modelName[svc], Batch: sc.req.Batch, SeqLen: sc.req.SeqLen}
		resp.Accepted = d.OK
		resp.PredictedMS = d.PredMS
		sc.out = AppendInferResponse(sc.out[:0], &resp)
	}
}
