// tracev2 is the repository's one arrival-trace file format: every tool
// that writes or replays arrivals goes through WriteTrace and ReadTrace. A
// file carries a version line, provenance metadata (workload name, seed,
// duration, service count) and a trailing FNV-64a checksum over everything
// before it, so a replay can refuse corrupted or truncated files. Every
// field has one canonical spelling, which ReadTrace insists on, so a round
// trip (generate → write → read → write) is byte-identical. The body is
// plain CSV so rows are greppable and hand-editable (at the cost of
// re-deriving the checksum with abacus workload).
//
// Layout:
//
//	#tracev2 v1
//	#meta name=<urlencoded> seed=<int> duration_ms=<float> services=<int>
//	time_ms,service,batch,seqlen
//	12.5,0,8,0
//	...
//	#fnv64a=<16 hex digits>
package workload

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"abacus/internal/dnn"
	"abacus/internal/trace"
)

const (
	tracev2Magic  = "#tracev2 v1"
	tracev2Header = "time_ms,service,batch,seqlen"
	tracev2Sum    = "#fnv64a="
)

// Meta is a trace file's provenance header.
type Meta struct {
	// Name labels the generating workload (or capture session).
	Name string
	// Seed is the generating seed (0 for live captures).
	Seed int64
	// DurationMS is the trace horizon; arrival times must fall inside it.
	DurationMS float64
	// Services is the deployment's service count; every row's service index
	// must fall inside it.
	Services int
}

// WriteTrace writes arrivals as a tracev2 file. Times are formatted
// canonically (shortest round-trip float), which is what makes
// write→read→write reproduce the file byte for byte.
func WriteTrace(w io.Writer, meta Meta, arrivals []trace.Arrival) error {
	if meta.Services <= 0 {
		return fmt.Errorf("workload: tracev2 meta needs services > 0, got %d", meta.Services)
	}
	if !(meta.DurationMS > 0) {
		return fmt.Errorf("workload: tracev2 meta needs duration_ms > 0, got %v", meta.DurationMS)
	}
	h := fnv.New64a()
	bw := bufio.NewWriter(io.MultiWriter(w, h))
	fmt.Fprintf(bw, "%s\n%s\n%s\n", tracev2Magic, metaLine(meta), tracev2Header)
	prev := 0.0
	for i, a := range arrivals {
		if err := checkArrival(meta, prev, a); err != nil {
			return fmt.Errorf("workload: tracev2 arrival %d %w", i, err)
		}
		prev = a.Time
		fmt.Fprintf(bw, "%s\n", rowLine(a))
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// The checksum line covers every byte written above it (itself excluded).
	_, err := fmt.Fprintf(w, "%s%016x\n", tracev2Sum, h.Sum64())
	return err
}

func metaLine(m Meta) string {
	return fmt.Sprintf("#meta name=%s seed=%d duration_ms=%s services=%d",
		url.QueryEscape(m.Name), m.Seed, strconv.FormatFloat(m.DurationMS, 'f', -1, 64), m.Services)
}

func rowLine(a trace.Arrival) string {
	return fmt.Sprintf("%s,%d,%d,%d",
		strconv.FormatFloat(a.Time, 'f', -1, 64), a.Service, a.Input.Batch, a.Input.SeqLen)
}

// checkArrival holds one arrival, following one at prev, to the row
// invariants both directions enforce. The comparisons are written so that a
// NaN time fails them.
func checkArrival(meta Meta, prev float64, a trace.Arrival) error {
	switch {
	case !(a.Time >= prev):
		return fmt.Errorf("time %v does not follow %v", a.Time, prev)
	case !(a.Time < meta.DurationMS):
		return fmt.Errorf("time %v past duration %v", a.Time, meta.DurationMS)
	case a.Service < 0 || a.Service >= meta.Services:
		return fmt.Errorf("service %d outside [0, %d)", a.Service, meta.Services)
	case a.Input.Batch < 1:
		return fmt.Errorf("batch %d invalid", a.Input.Batch)
	case a.Input.SeqLen < 0:
		return fmt.Errorf("seqlen %d negative", a.Input.SeqLen)
	}
	return nil
}

// ReadTrace parses and verifies a tracev2 file: magic, metadata, checksum,
// row sanity (sorted times inside the horizon, valid service indices). It
// accepts exactly the bytes WriteTrace would write for the file's contents,
// so any file it reads rewrites byte for byte.
func ReadTrace(r io.Reader) (Meta, []trace.Arrival, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Meta{}, nil, err
	}
	src := string(data)
	if !strings.HasPrefix(src, tracev2Magic+"\n") {
		return Meta{}, nil, fmt.Errorf("workload: not a tracev2 file (missing %q line)", tracev2Magic)
	}
	sumAt := strings.LastIndex(src, tracev2Sum)
	if sumAt < 0 {
		return Meta{}, nil, fmt.Errorf("workload: tracev2 file has no %s checksum line (truncated?)", strings.TrimSuffix(tracev2Sum, "="))
	}
	body := src[:sumAt]
	h := fnv.New64a()
	h.Write([]byte(body))
	if want := fmt.Sprintf("%s%016x\n", tracev2Sum, h.Sum64()); src[sumAt:] != want {
		return Meta{}, nil, fmt.Errorf("workload: tracev2 checksum line %q does not match the content's %q",
			strings.TrimSpace(src[sumAt:]), strings.TrimSpace(want))
	}

	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	// lines[0] is the magic; next comes #meta, then the CSV header.
	if len(lines) < 3 || !strings.HasSuffix(body, "\n") {
		return Meta{}, nil, fmt.Errorf("workload: tracev2 file too short or not newline-terminated")
	}
	meta, err := parseMeta(lines[1])
	if err != nil {
		return Meta{}, nil, err
	}
	if lines[2] != tracev2Header {
		return Meta{}, nil, fmt.Errorf("workload: tracev2 unexpected column header %q", lines[2])
	}
	arrivals := make([]trace.Arrival, 0, len(lines)-3)
	prev := 0.0
	for i, ln := range lines[3:] {
		f := strings.Split(ln, ",")
		if len(f) != 4 {
			return Meta{}, nil, fmt.Errorf("workload: tracev2 row %d malformed: %q", i+1, ln)
		}
		t, err1 := strconv.ParseFloat(f[0], 64)
		svc, err2 := strconv.Atoi(f[1])
		batch, err3 := strconv.Atoi(f[2])
		seq, err4 := strconv.Atoi(f[3])
		a := trace.Arrival{Time: t, Service: svc, Input: dnn.Input{Batch: batch, SeqLen: seq}}
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || rowLine(a) != ln {
			return Meta{}, nil, fmt.Errorf("workload: tracev2 row %d malformed: %q", i+1, ln)
		}
		if err := checkArrival(meta, prev, a); err != nil {
			return Meta{}, nil, fmt.Errorf("workload: tracev2 row %d %w", i+1, err)
		}
		prev = t
		arrivals = append(arrivals, a)
	}
	return meta, arrivals, nil
}

// parseMeta reads the #meta line; any spelling other than metaLine's is
// rejected, which also covers a missing, repeated or unknown field.
func parseMeta(line string) (Meta, error) {
	var m Meta
	for _, kv := range strings.Fields(strings.TrimPrefix(line, "#meta ")) {
		k, v, _ := strings.Cut(kv, "=")
		var err error
		switch k {
		case "name":
			m.Name, err = url.QueryUnescape(v)
		case "seed":
			m.Seed, err = strconv.ParseInt(v, 10, 64)
		case "duration_ms":
			m.DurationMS, err = strconv.ParseFloat(v, 64)
		case "services":
			m.Services, err = strconv.Atoi(v)
		}
		if err != nil {
			return Meta{}, fmt.Errorf("workload: tracev2 meta field %s: %w", k, err)
		}
	}
	if m.Services <= 0 || !(m.DurationMS > 0) {
		return Meta{}, fmt.Errorf("workload: tracev2 meta out of range (services=%d duration_ms=%v)", m.Services, m.DurationMS)
	}
	if want := metaLine(m); line != want {
		return Meta{}, fmt.Errorf("workload: tracev2 meta line %q, want %q", line, want)
	}
	return m, nil
}

// CaptureMeta builds the Meta for persisting a live capture: duration is
// rounded up past the last arrival so replays accept every row.
func CaptureMeta(name string, services int, arrivals []trace.Arrival) Meta {
	dur := 1.0
	if n := len(arrivals); n > 0 {
		last := arrivals[n-1].Time
		if !sort.SliceIsSorted(arrivals, func(i, j int) bool { return arrivals[i].Time < arrivals[j].Time }) {
			for _, a := range arrivals {
				if a.Time > last {
					last = a.Time
				}
			}
		}
		dur = last + 1
	}
	return Meta{Name: name, DurationMS: dur, Services: services}
}
