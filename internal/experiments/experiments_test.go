package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsQuick smoke-runs every registered experiment in quick
// mode: tables must render, have the declared width, and be non-empty. It
// also pins each table's SHA-256 in the repository's golden manifest as an
// "expr -quick: <table ID>" line, with its wall-clock cells masked (see
// wallCells); on amd64 only, as TestGolden in cmd/abacus, whose manifest it
// shares.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take tens of seconds; skipped in -short")
	}
	opts := Quick()
	var got []string
	ran := 0
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			ran++
			tables, err := Run(id, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("table %s has no rows", tb.ID)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Header) {
						t.Errorf("table %s row width %d != header %d", tb.ID, len(row), len(tb.Header))
					}
				}
				var buf bytes.Buffer
				tb.Render(&buf)
				if buf.Len() == 0 {
					t.Errorf("table %s rendered empty", tb.ID)
				}
				t.Logf("\n%s", buf.String())
				buf.Reset()
				m := masked(tb)
				m.Render(&buf)
				got = append(got, fmt.Sprintf("%x  %s%s", sha256.Sum256(buf.Bytes()), exprPrefix, tb.ID))
			}
		})
	}
	if ran < len(IDs()) || t.Failed() {
		return // a -run filter or a failed experiment leaves the manifest unchecked
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("manifest pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	checkManifest(t, got)
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("no-such-fig", Quick()); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestIDsRegistered(t *testing.T) {
	want := []string{"ablations", "affinity", "autoscale", "fig10", "fig10-nwise", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig3", "fig7", "intramodel", "overhead", "peakqps", "segments"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestFig15ShapeAbacusWins asserts the reproduction target on the rendered
// numbers: Abacus's mean violation ratio across pairs is at most each
// baseline's.
func TestFig15ShapeAbacusWins(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tables := Fig15(Quick())
	tb := tables[0]
	sums := make([]float64, 4) // FCFS SJF EDF Abacus
	for _, row := range tb.Rows {
		for c := 1; c <= 4; c++ {
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[c], "%"), 64)
			if err != nil {
				t.Fatalf("cell %q: %v", row[c], err)
			}
			sums[c-1] += v
		}
	}
	abacus := sums[3]
	for i, name := range []string{"FCFS", "SJF", "EDF"} {
		if abacus > sums[i]+1e-9 {
			t.Errorf("Abacus total violations %.1f exceed %s %.1f", abacus, name, sums[i])
		}
	}
}

// TestFig17ShapeThroughputGain asserts Abacus's mean goodput beats FCFS at
// saturation.
func TestFig17ShapeThroughputGain(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tables := Fig17(Quick())
	tb := tables[0]
	var fcfs, abacus float64
	for _, row := range tb.Rows {
		f, err1 := strconv.ParseFloat(row[1], 64)
		a, err2 := strconv.ParseFloat(row[4], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad cells %q %q", row[1], row[4])
		}
		fcfs += f
		abacus += a
	}
	if abacus <= fcfs {
		t.Errorf("Abacus total goodput %.1f <= FCFS %.1f at saturation", abacus, fcfs)
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{
		ID:     "t1",
		Title:  "demo",
		Header: []string{"a", "b"},
		Notes:  []string{"hello"},
	}
	tb.AddRow("1", "2")
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== t1: demo", "a", "b", "1", "2", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestMeanImprovementAndGain(t *testing.T) {
	ab := []float64{1, 2}
	base := []float64{2, 4}
	if got := meanImprovement(ab, base); got != 0.5 {
		t.Errorf("meanImprovement = %v, want 0.5", got)
	}
	if got := meanGain(base, ab); got != 1.0 {
		t.Errorf("meanGain = %v, want 1.0", got)
	}
	if got := meanImprovement([]float64{1}, []float64{0}); got != 0 {
		t.Errorf("zero baseline should be skipped, got %v", got)
	}
}

func TestEvalPairsCounts(t *testing.T) {
	if got := len(evalPairs(Full())); got != 21 {
		t.Errorf("full mode has %d pairs, want 21", got)
	}
	if got := len(evalPairs(Quick())); got != 6 {
		t.Errorf("quick mode has %d pairs, want 6", got)
	}
}

func TestZooIDs(t *testing.T) {
	ids := ZooIDs()
	if len(ids) != 7 || ids[0].String() != "Res50" || ids[6].String() != "Bert" {
		t.Errorf("ZooIDs = %v", ids)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	register("fig3", Fig03)
}

// TestAffinityShape asserts the §7.8 criterion on the rendered grouping:
// VGG16 and VGG19 never share a service group.
func TestAffinityShape(t *testing.T) {
	tables := Affinity(Quick())
	if len(tables) != 2 {
		t.Fatalf("got %d tables", len(tables))
	}
	groups := tables[1]
	for _, row := range groups.Rows {
		members := row[1]
		if strings.Contains(members, "VGG16") && strings.Contains(members, "VGG19") {
			t.Errorf("VGG16 and VGG19 co-grouped: %v", row)
		}
	}
}

// TestAutoscaleShape asserts the extension's reproduction target: positive
// savings versus static peak provisioning.
func TestAutoscaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity probe is slow")
	}
	tables := Autoscale(Quick())
	found := false
	for _, n := range tables[0].Notes {
		if strings.Contains(n, "node-minutes saved") {
			found = true
			if strings.Contains(n, "saved: 0.0%") || strings.Contains(n, "saved: -") {
				t.Errorf("no savings reported: %s", n)
			}
		}
	}
	if !found {
		t.Error("savings note missing")
	}
}
