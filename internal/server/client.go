// Client is the gateway's Go client: the load generator and the end-to-end
// tests speak to the HTTP front end through it.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// DecodeError marks a response that arrived intact over the network but did
// not decode as an InferResponse: the body was read to EOF first, so this is
// a protocol fault, never a transport one. Keeping the two distinct matters
// with pooled read buffers — a short read surfaces as the read error itself
// and is counted once as a network error, instead of the stale buffer tail
// also failing to parse and double-counting as malformed.
type DecodeError struct {
	Status int   // HTTP status of the undecodable response
	Err    error // the underlying unmarshal failure
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("decoding /v1/infer response (HTTP %d): %v", e.Status, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// IsDecodeError reports whether err (or anything it wraps) is a DecodeError.
func IsDecodeError(err error) bool {
	var de *DecodeError
	return errors.As(err, &de)
}

// respBufPool holds response-body read buffers for inferHeaders; bodies are
// small JSON objects, so one warm buffer per concurrent caller suffices.
var respBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// Client talks to one gateway.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the gateway at base (e.g.
// "http://127.0.0.1:8080"). A nil httpClient uses a dedicated client with no
// timeout — inference calls legitimately wait out their paced latency.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// Infer submits one query and waits for its outcome. The returned response
// is non-nil whenever the gateway answered, whatever the status code;
// status conveys the HTTP code (200 completed, 429 rejected, 503 draining,
// 504 dropped).
func (c *Client) Infer(ctx context.Context, req InferRequest) (*InferResponse, int, error) {
	resp, status, _, err := c.inferHeaders(ctx, req)
	return resp, status, err
}

// inferHeaders is Infer plus the response headers, which the retry layer
// reads for Retry-After hints.
func (c *Client) inferHeaders(ctx context.Context, req InferRequest) (*InferResponse, int, http.Header, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/infer", bytes.NewReader(body))
	if err != nil {
		return nil, 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hres, err := c.hc.Do(hreq)
	if err != nil {
		return nil, 0, nil, err
	}
	defer hres.Body.Close()
	// Read the whole body before decoding. A failed or short read is a
	// network error and is returned as such without touching the decoder:
	// the pooled buffer may hold a truncated or stale prefix, and parsing it
	// would misreport a transport fault as a malformed response.
	bp := respBufPool.Get().(*[]byte)
	buf, err := readAll(hres.Body, (*bp)[:0])
	*bp = buf[:0]
	defer respBufPool.Put(bp)
	if err != nil {
		return nil, hres.StatusCode, hres.Header, fmt.Errorf("reading /v1/infer response: %w", err)
	}
	var out InferResponse
	if err := json.Unmarshal(buf, &out); err != nil {
		return nil, hres.StatusCode, hres.Header, &DecodeError{Status: hres.StatusCode, Err: err}
	}
	return &out, hres.StatusCode, hres.Header, nil
}

// Stats fetches /statz.
func (c *Client) Stats(ctx context.Context) (*Statz, error) {
	var out Statz
	if err := c.getJSON(ctx, "/statz", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health probes /healthz; a non-200 answer is an error.
func (c *Client) Health(ctx context.Context) error {
	var out map[string]any
	return c.getJSON(ctx, "/healthz", &out)
}

// WaitReady polls /healthz until the gateway answers or the timeout lapses.
func (c *Client) WaitReady(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		err := c.Health(ctx)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway not ready after %v: %w", timeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	hres, err := c.hc.Do(hreq)
	if err != nil {
		return err
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, hres.Status)
	}
	return json.NewDecoder(hres.Body).Decode(v)
}
