package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"

	"abacus/internal/dnn"
)

// respWriter is a reusable in-process http.ResponseWriter, as in
// cmd/abacus-httpbench: requests enter through Handler().ServeHTTP, so the
// benchmark measures this repository's code and not the loopback stack.
type respWriter struct {
	h    http.Header
	code int
	buf  []byte
}

func (w *respWriter) Header() http.Header  { return w.h }
func (w *respWriter) WriteHeader(code int) { w.code = code }
func (w *respWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// conn is one in-process requester with a reusable request and body reader,
// so the driver adds almost nothing to the allocations it is counting.
type conn struct {
	h    http.Handler
	req  *http.Request
	body *bytes.Reader
	w    *respWriter
}

func newConn(h http.Handler) *conn {
	body := bytes.NewReader(nil)
	return &conn{h: h, body: body,
		req: httptest.NewRequest(http.MethodPost, "/v1/infer", body),
		w:   &respWriter{h: make(http.Header, 4)}}
}

// roundTrip sends one body and returns the status code; the response bytes
// stay in c.w.buf until the next call.
func (c *conn) roundTrip(body []byte) int {
	c.body.Reset(body)
	c.req.ContentLength = int64(len(body))
	c.w.code = http.StatusOK
	c.w.buf = c.w.buf[:0]
	c.h.ServeHTTP(c.w, c.req)
	return c.w.code
}

// outcome classes of one request; every request sent lands in exactly one.
const (
	outGood = iota
	outViolated
	outDropped
	outRefused
	outFailed
	numOutcomes
)

// verdict is what the client reads off one gateway response.
type verdict struct {
	outcome    int
	latencyMS  float64 // virtual latency, 200 only
	deadlineMS float64 // the query's QoS target, 200 only
	finishMS   float64 // virtual finish instant, 200 only
	duplicate  bool
}

var (
	keyLatency   = []byte(`"latency_ms":`)
	keyDeadline  = []byte(`"deadline_ms":`)
	keyFinish    = []byte(`"finish_ms":`)
	tagViolated  = []byte(`"violated":true`)
	tagDuplicate = []byte(`"duplicate":true`)
	tagRefused   = []byte(`"accepted":false`)
)

// readVerdict classifies a response without materialising it: 200 must carry
// a latency and a deadline, 429 must say it was not accepted, 504 is a
// controller drop; anything else — or a body missing those fields — failed.
func readVerdict(code int, body []byte) verdict {
	switch code {
	case http.StatusOK:
		lat, ok1 := numberAfter(body, keyLatency)
		dl, ok2 := numberAfter(body, keyDeadline)
		fin, ok3 := numberAfter(body, keyFinish)
		if !ok1 || !ok2 || !ok3 || dl <= 0 {
			return verdict{outcome: outFailed}
		}
		v := verdict{outcome: outGood, latencyMS: lat, deadlineMS: dl, finishMS: fin,
			duplicate: bytes.Contains(body, tagDuplicate)}
		if bytes.Contains(body, tagViolated) {
			v.outcome = outViolated
		}
		return v
	case http.StatusTooManyRequests:
		if bytes.Contains(body, tagRefused) {
			return verdict{outcome: outRefused}
		}
	case http.StatusGatewayTimeout:
		return verdict{outcome: outDropped}
	}
	return verdict{outcome: outFailed}
}

// numberAfter parses the JSON number following key.
func numberAfter(body, key []byte) (float64, bool) {
	i := bytes.Index(body, key)
	if i < 0 {
		return 0, false
	}
	i += len(key)
	j := i
	for j < len(body) && body[j] != ',' && body[j] != '}' {
		j++
	}
	v, err := strconv.ParseFloat(string(body[i:j]), 64)
	return v, err == nil
}

// inferBody renders the /v1/infer request for one query.
func inferBody(m dnn.ModelID, in dnn.Input) []byte {
	b := append([]byte(`{"model":"`), m.String()...)
	b = append(b, `","batch":`...)
	b = strconv.AppendInt(b, int64(in.Batch), 10)
	if in.SeqLen > 0 {
		b = append(b, `,"seqlen":`...)
		b = strconv.AppendInt(b, int64(in.SeqLen), 10)
	}
	return append(b, '}')
}
