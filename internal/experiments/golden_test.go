package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// manifest is the repository's golden manifest. Its "expr -quick: " lines
// are this package's (TestAllExperimentsQuick); every other line belongs to
// TestGolden in cmd/abacus. Each test checks and rewrites only its own.
const (
	manifest   = "../../GOLDEN.sha256"
	exprPrefix = "expr -quick: "
)

var update = flag.Bool("update", false, "rewrite the expr -quick lines of "+manifest+" and log the lines that moved (make golden-update)")

// wallCells names the cells that read the host's wall clock, by table ID
// and column header; a non-empty row names the one row (by its first cell)
// whose cell is masked, an empty one masks the whole column.
var wallCells = []struct{ table, column, row string }{
	{"fig23", "per-decision(ms)", ""},
	{"overhead", "measured", "single prediction"},
	{"overhead", "measured", "one group measurement (simulated)"},
}

// masked returns a copy of tb with its wall-clock cells blanked.
func masked(tb Table) Table {
	rows := make([][]string, len(tb.Rows))
	for i, row := range tb.Rows {
		rows[i] = append([]string(nil), row...)
	}
	for _, w := range wallCells {
		for c, h := range tb.Header {
			if w.table != tb.ID || h != w.column {
				continue
			}
			for _, row := range rows {
				if w.row == "" || row[0] == w.row {
					row[c] = "-"
				}
			}
		}
	}
	tb.Rows = rows
	return tb
}

// checkManifest compares got, this package's "<sha256>  <name>" lines, with
// the manifest's expr -quick lines and reports each that is new, moved or
// gone; under -update it rewrites them in place of the old ones, after the
// lines of TestGolden, and logs the same list.
func checkManifest(t *testing.T, got []string) {
	raw, err := os.ReadFile(manifest)
	if err != nil && !*update {
		t.Fatal(err)
	}
	var others, names []string
	want := map[string]string{}
	for _, l := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		sum, name, _ := strings.Cut(l, "  ")
		if strings.HasPrefix(name, exprPrefix) {
			want[name] = sum
			names = append(names, name)
		} else if l != "" {
			others = append(others, l)
		}
	}
	var diffs []string
	seen := map[string]bool{}
	for _, l := range got {
		sum, name, _ := strings.Cut(l, "  ")
		if seen[name] {
			t.Errorf("two tables render as %q", name)
		}
		seen[name] = true
		switch old, ok := want[name]; {
		case !ok:
			diffs = append(diffs, "new "+name)
		case old != sum:
			diffs = append(diffs, name+": "+old[:8]+"… → "+sum[:8]+"…")
		}
	}
	for _, name := range names {
		if !seen[name] {
			diffs = append(diffs, "gone "+name)
		}
	}
	if !*update {
		for _, d := range diffs {
			t.Errorf("%s", d)
		}
		return
	}
	for _, d := range diffs {
		t.Logf("moved: %s", d)
	}
	if err := os.WriteFile(manifest, []byte(strings.Join(append(others, got...), "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}
