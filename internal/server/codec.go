// Wire codec for the /v1/infer hot path: a hand-rolled validating JSON
// decoder over a caller-owned byte buffer and an appending encoder that
// renders InferResponse byte-identically to encoding/json. Both sides are
// allocation-free in steady state — the decoder returns views into the
// request buffer instead of materialized strings, and the encoder appends
// into a pooled scratch slice — so the gateway's ingest path costs zero
// allocs/op once the scratch pools are warm (asserted by
// TestInferHotPathZeroAllocs).
package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// WireRequest is the decoded view of a POST /v1/infer body. Model and
// RequestID alias either the input buffer or the internal unescape scratch:
// they are valid until the next Parse and must be copied (string(...)) to
// outlive it. The zero value is ready to use; reusing one WireRequest across
// requests reuses its unescape scratch.
type WireRequest struct {
	Model      []byte
	Batch      int
	SeqLen     int
	DeadlineMS float64
	RequestID  []byte
	Attempt    int

	esc []byte // unescape scratch, grown once and reused
}

// Parse decodes one /v1/infer JSON object from data. Unknown fields are
// skipped (matching encoding/json), known keys match exactly or under
// Unicode case folding, and trailing bytes after the top-level value are
// ignored (json.Decoder.Decode semantics); a top-level null decodes to the
// zero request. Numeric fields reject fractions on integer targets the way
// encoding/json does.
func (w *WireRequest) Parse(data []byte) error {
	esc := w.esc[:0]
	*w = WireRequest{esc: esc}
	p := jsonParser{b: data, esc: &w.esc}
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == 'n' {
		return p.lit("null")
	}
	if !p.eat('{') {
		return p.fail("expected object")
	}
	p.ws()
	if p.eat('}') {
		return nil
	}
	for {
		key, err := p.str()
		if err != nil {
			return err
		}
		p.ws()
		if !p.eat(':') {
			return p.fail("expected ':' after object key")
		}
		p.ws()
		if err := w.field(&p, key); err != nil {
			return err
		}
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		if p.eat('}') {
			return nil
		}
		return p.fail("expected ',' or '}' in object")
	}
}

// field dispatches one key/value pair. Exact tag match first, then the
// case-insensitive fallback encoding/json applies, then a generic skip.
// A null value leaves the target untouched, as encoding/json does.
func (w *WireRequest) field(p *jsonParser, key []byte) error {
	if p.i < len(p.b) && p.b[p.i] == 'n' {
		return p.lit("null")
	}
	var err error
	switch {
	case keyIs(key, "model"):
		w.Model, err = p.str()
	case keyIs(key, "batch"):
		w.Batch, err = p.int("batch")
	case keyIs(key, "seqlen"):
		w.SeqLen, err = p.int("seqlen")
	case keyIs(key, "deadline_ms"):
		w.DeadlineMS, err = p.float("deadline_ms")
	case keyIs(key, "request_id"):
		w.RequestID, err = p.str()
	case keyIs(key, "attempt"):
		w.Attempt, err = p.int("attempt")
	default:
		err = p.skipValue(0)
	}
	return err
}

// keyIs matches a decoded key against a known field tag under the Unicode
// simple case folding encoding/json matches keys with, so "ſeqlen" (long
// s) names seqlen there too. No two tags fold together, so folding alone
// decides.
func keyIs(key []byte, tag string) bool {
	return bytes.EqualFold(key, []byte(tag))
}

// jsonParser is a cursor over one request body. All methods are
// allocation-free except error construction and the growth of esc.
type jsonParser struct {
	b   []byte
	i   int
	esc *[]byte // unescape scratch, shared by every string of one Parse
}

func (p *jsonParser) fail(msg string) error {
	return fmt.Errorf("offset %d: %s", p.i, msg)
}

func (p *jsonParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *jsonParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str parses a JSON string. The fast path (no escapes, valid UTF-8)
// returns a view into the input; escapes and invalid UTF-8 divert into the
// shared scratch, which only grows, so earlier views stay valid within one
// Parse.
func (p *jsonParser) str() ([]byte, error) {
	if !p.eat('"') {
		return nil, p.fail("expected string")
	}
	start := p.i
	for p.i < len(p.b) {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			return s, nil
		case c == '\\':
			return p.strSlow(start)
		case c < 0x20:
			return nil, p.fail("control character in string")
		case c < utf8.RuneSelf:
			p.i++
		default:
			r, size := utf8.DecodeRune(p.b[p.i:])
			if r == utf8.RuneError && size == 1 {
				return p.strSlow(start)
			}
			p.i += size
		}
	}
	return nil, p.fail("unterminated string")
}

// strSlow finishes a string containing escapes or invalid UTF-8,
// unescaping into the scratch. Each byte of an invalid UTF-8 sequence
// becomes U+FFFD, as encoding/json decodes it.
func (p *jsonParser) strSlow(start int) ([]byte, error) {
	esc := p.esc
	from := len(*esc)
	*esc = append(*esc, p.b[start:p.i]...)
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			return (*esc)[from:], nil
		case c == '\\':
			p.i++
			if p.i >= len(p.b) {
				return nil, p.fail("truncated escape")
			}
			switch e := p.b[p.i]; e {
			case '"', '\\', '/':
				*esc = append(*esc, e)
				p.i++
			case 'b':
				*esc = append(*esc, '\b')
				p.i++
			case 'f':
				*esc = append(*esc, '\f')
				p.i++
			case 'n':
				*esc = append(*esc, '\n')
				p.i++
			case 'r':
				*esc = append(*esc, '\r')
				p.i++
			case 't':
				*esc = append(*esc, '\t')
				p.i++
			case 'u':
				r, err := p.unicodeEscape()
				if err != nil {
					return nil, err
				}
				*esc = utf8.AppendRune(*esc, r)
			default:
				return nil, p.fail("invalid escape")
			}
		case c < 0x20:
			return nil, p.fail("control character in string")
		case c < utf8.RuneSelf:
			*esc = append(*esc, c)
			p.i++
		default:
			r, size := utf8.DecodeRune(p.b[p.i:])
			*esc = utf8.AppendRune(*esc, r)
			p.i += size
		}
	}
	return nil, p.fail("unterminated string")
}

// unicodeEscape consumes uXXXX (cursor on the 'u'), handling surrogate
// pairs; lone surrogates decode to U+FFFD like encoding/json.
func (p *jsonParser) unicodeEscape() (rune, error) {
	r, err := p.hex4()
	if err != nil {
		return 0, err
	}
	if r >= 0xD800 && r < 0xDC00 { // high surrogate: try to pair
		if p.i+1 < len(p.b) && p.b[p.i] == '\\' && p.b[p.i+1] == 'u' {
			save := p.i
			p.i++ // the backslash; hex4 wants the cursor on the 'u'
			r2, err := p.hex4()
			if err != nil {
				return 0, err
			}
			if r2 >= 0xDC00 && r2 < 0xE000 {
				return 0x10000 + (r-0xD800)<<10 + (r2 - 0xDC00), nil
			}
			p.i = save
		}
		return utf8.RuneError, nil
	}
	if r >= 0xDC00 && r < 0xE000 { // lone low surrogate
		return utf8.RuneError, nil
	}
	return r, nil
}

// hex4 parses the four hex digits of a \u escape (cursor on the 'u').
func (p *jsonParser) hex4() (rune, error) {
	p.i++ // 'u'
	if p.i+4 > len(p.b) {
		return 0, p.fail("truncated \\u escape")
	}
	var r rune
	for j := 0; j < 4; j++ {
		c := p.b[p.i+j]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, p.fail("invalid \\u escape")
		}
	}
	p.i += 4
	return r, nil
}

// numToken scans one JSON number and returns its bytes.
func (p *jsonParser) numToken() ([]byte, error) {
	start := p.i
	p.eat('-')
	first := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	switch digits := p.i - first; {
	case digits == 0:
		return nil, p.fail("expected number")
	case digits > 1 && p.b[first] == '0':
		return nil, p.fail("leading zero in number")
	}
	if p.eat('.') {
		frac := 0
		for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
			p.i++
			frac++
		}
		if frac == 0 {
			return nil, p.fail("digits required after decimal point")
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		exp := 0
		for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
			p.i++
			exp++
		}
		if exp == 0 {
			return nil, p.fail("digits required in exponent")
		}
	}
	return p.b[start:p.i], nil
}

// int parses an integer field over int's range, rejecting fractions and
// exponents the way encoding/json rejects non-integral numbers for int
// targets. As in float, the string conversion stays on the stack.
func (p *jsonParser) int(field string) (int, error) {
	tok, err := p.numToken()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return 0, fmt.Errorf("field %s: %s is not an int", field, tok)
	}
	return int(v), nil
}

// float parses a float64 field. The string conversion does not escape into
// ParseFloat, so tokens up to 32 bytes convert on the stack — no allocation
// on any realistic number.
func (p *jsonParser) float(field string) (float64, error) {
	tok, err := p.numToken()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("field %s: invalid number %s", field, tok)
	}
	return v, nil
}

// maxSkipDepth bounds nesting inside skipped unknown fields so a hostile
// body cannot recurse the parser to death.
const maxSkipDepth = 64

// skipValue consumes one JSON value of any type without materializing it.
func (p *jsonParser) skipValue(depth int) error {
	if depth > maxSkipDepth {
		return p.fail("value nested too deeply")
	}
	p.ws()
	if p.i >= len(p.b) {
		return p.fail("expected value")
	}
	switch c := p.b[p.i]; {
	case c == '"':
		_, err := p.str()
		return err
	case c == '{':
		p.i++
		p.ws()
		if p.eat('}') {
			return nil
		}
		for {
			p.ws()
			if _, err := p.str(); err != nil {
				return err
			}
			p.ws()
			if !p.eat(':') {
				return p.fail("expected ':' after object key")
			}
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			p.ws()
			if p.eat(',') {
				continue
			}
			if p.eat('}') {
				return nil
			}
			return p.fail("expected ',' or '}' in object")
		}
	case c == '[':
		p.i++
		p.ws()
		if p.eat(']') {
			return nil
		}
		for {
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			p.ws()
			if p.eat(',') {
				continue
			}
			if p.eat(']') {
				return nil
			}
			return p.fail("expected ',' or ']' in array")
		}
	case c == 't':
		return p.lit("true")
	case c == 'f':
		return p.lit("false")
	case c == 'n':
		return p.lit("null")
	default:
		_, err := p.numToken()
		return err
	}
}

func (p *jsonParser) lit(s string) error {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return p.fail("invalid literal")
	}
	p.i += len(s)
	return nil
}

// AppendInferResponse renders r exactly as json.NewEncoder(w).Encode(r)
// would — same field order, omitempty semantics, HTML escaping, float
// format, and trailing newline — appending to dst without allocating beyond
// dst's own growth. Responses stay byte-compatible with the PR-2 gateway
// while costing zero steady-state allocations from a pooled scratch.
func AppendInferResponse(dst []byte, r *InferResponse) []byte {
	dst = append(dst, `{"model":`...)
	dst = appendJSONString(dst, r.Model)
	dst = append(dst, `,"batch":`...)
	dst = strconv.AppendInt(dst, int64(r.Batch), 10)
	if r.SeqLen != 0 {
		dst = append(dst, `,"seqlen":`...)
		dst = strconv.AppendInt(dst, int64(r.SeqLen), 10)
	}
	dst = append(dst, `,"accepted":`...)
	dst = appendJSONBool(dst, r.Accepted)
	if r.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendJSONString(dst, r.Reason)
	}
	if r.ArrivalMS != 0 {
		dst = append(dst, `,"arrival_ms":`...)
		dst = appendJSONFloat(dst, r.ArrivalMS)
	}
	if r.FinishMS != 0 {
		dst = append(dst, `,"finish_ms":`...)
		dst = appendJSONFloat(dst, r.FinishMS)
	}
	if r.LatencyMS != 0 {
		dst = append(dst, `,"latency_ms":`...)
		dst = appendJSONFloat(dst, r.LatencyMS)
	}
	if r.DeadlineMS != 0 {
		dst = append(dst, `,"deadline_ms":`...)
		dst = appendJSONFloat(dst, r.DeadlineMS)
	}
	if r.PredictedMS != 0 {
		dst = append(dst, `,"predicted_ms":`...)
		dst = appendJSONFloat(dst, r.PredictedMS)
	}
	if r.RetryAfterMS != 0 {
		dst = append(dst, `,"retry_after_ms":`...)
		dst = appendJSONFloat(dst, r.RetryAfterMS)
	}
	if r.Dropped {
		dst = append(dst, `,"dropped":true`...)
	}
	if r.Violated {
		dst = append(dst, `,"violated":true`...)
	}
	if r.Duplicate {
		dst = append(dst, `,"duplicate":true`...)
	}
	if r.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, r.Error)
	}
	return append(dst, '}', '\n')
}

func appendJSONBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, `true`...)
	}
	return append(dst, `false`...)
}

// appendJSONFloat matches encoding/json's float encoding: shortest
// representation, 'f' format in the human range, 'e' with a trimmed
// single-digit exponent outside it.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9, as encoding/json does
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// jsonSafe marks ASCII bytes that encoding/json emits verbatim inside a
// string (HTML escaping on, its Encoder default).
var jsonSafe = [utf8.RuneSelf]bool{}

func init() {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		jsonSafe[c] = true
	}
	jsonSafe['"'] = false
	jsonSafe['\\'] = false
	jsonSafe['<'] = false
	jsonSafe['>'] = false
	jsonSafe['&'] = false
}

const hexDigits = "0123456789abcdef"

// appendJSONString escapes s exactly as encoding/json's default encoder:
// quotes, backslashes, control characters, the HTML trio, invalid UTF-8 as
// U+FFFD, and U+2028/U+2029.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// readAll reads r to EOF into buf (append semantics), growing it at most a
// handful of times for first-touch sizes and not at all once a pooled
// buffer has seen the deployment's largest body.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// inferScratch is the per-request pooled state of the ingest path: the
// request body buffer, the decoded view, and the response encode buffer.
type inferScratch struct {
	body []byte
	out  []byte
	req  WireRequest
}

var scratchPool = sync.Pool{New: func() any {
	return &inferScratch{body: make([]byte, 0, 4096), out: make([]byte, 0, 512)}
}}

func getScratch() *inferScratch   { return scratchPool.Get().(*inferScratch) }
func putScratch(sc *inferScratch) { scratchPool.Put(sc) }
