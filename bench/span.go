package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Span kinds: one per layer boundary the benchmark times from outside.
type spanKind uint8

const (
	spanReplay  spanKind = iota // root of a replay through the bench-owned stack
	spanDecode                  // server.WireRequest.Parse
	spanRoute                   // cluster.Pick over the nodes' backlogs
	spanAdmit                   // admit.Admitter.Decide (+ Admitted)
	spanSubmit                  // core.Runtime.SubmitSLO
	spanDrive                   // bench-driven sim.Engine.Step loop
	spanPredict                 // predictor.LatencyModel call (decorator)
	spanEncode                  // server.AppendInferResponse
	spanHandler                 // http.Handler wrapper around the real gateway
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"replay", "decode", "route", "admit", "submit", "drive", "predict", "encode", "handler",
}

// span is one timed interval: times are ns since the recorder's epoch,
// parent is the index of the span that caused it (-1 for a root) and req the
// request it belongs to (-1 when it serves several, as a drive does).
type span struct {
	kind       spanKind
	req        int32
	parent     int32
	start, end int64
}

// recorder keeps spans in a preallocated buffer; begin/end are safe from any
// goroutine (each span is written by the goroutine that began it). A nil
// recorder records nothing, which is how tracing is switched off.
type recorder struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, capacity)}
}

// reset empties the buffer for the next traced replay.
func (r *recorder) reset() {
	r.epoch = time.Now()
	r.n.Store(0)
	r.dropped.Store(0)
}

func (r *recorder) begin(kind spanKind, req, parent int32) int32 {
	if r == nil {
		return -1
	}
	i := r.n.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = span{kind: kind, req: req, parent: parent, start: int64(time.Since(r.epoch))}
	return int32(i)
}

func (r *recorder) end(i int32) {
	if i >= 0 {
		r.spans[i].end = int64(time.Since(r.epoch))
	}
}

func (r *recorder) recorded() []span {
	n := r.n.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// layerTimes is the trace folded by span kind: total and self time (a
// span's duration minus what its children cover) and span count.
type layerTimes struct {
	total, self [numSpanKinds]int64
	count       [numSpanKinds]int64
	// broken counts spans whose children cover more than the span itself or
	// that never ended: the nesting the self times rely on did not hold.
	broken int
}

func (r *recorder) fold() layerTimes {
	spans := r.recorded()
	self := make([]int64, len(spans))
	var lt layerTimes
	for i, s := range spans {
		d := s.end - s.start
		if d < 0 {
			lt.broken++
			d = 0
		}
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
		lt.total[s.kind] += d
		lt.count[s.kind]++
	}
	for i, s := range spans {
		if self[i] < 0 {
			lt.broken++
		}
		lt.self[s.kind] += self[i]
	}
	return lt
}

// selfSum is the sum of every layer's self time; with sound nesting it
// equals the total time of the root spans.
func (lt layerTimes) selfSum() (sum int64) {
	for _, v := range lt.self {
		sum += v
	}
	return sum
}

// write stores the trace as JSON: one [name, start_ns, end_ns, parent, req]
// row per span, in the order the spans began.
func (r *recorder) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"epoch_unix_ns\":%d,\"dropped\":%d,\n\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"req\"],\n\"spans\":[\n",
		workload, r.epoch.UnixNano(), r.dropped.Load())
	for i, s := range r.recorded() {
		sep := ","
		if i == 0 {
			sep = ""
		}
		fmt.Fprintf(w, "%s[%q,%d,%d,%d,%d]\n", sep, spanNames[s.kind], s.start, s.end, s.parent, s.req)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
