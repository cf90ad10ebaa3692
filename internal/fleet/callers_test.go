package fleet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// stackParts are the constructors NewStack composes. Outside this package
// only the callers below may use them; a new one would be a second node
// stack that drifts from this one. predictor.Oracle is watched too: a
// device's default model is predictor.ForDevice's, and a hand-built oracle
// is one that can miss its device's capacity or its host's spec table.
var stackParts = map[string]string{
	"abacus/internal/core":      "New",
	"abacus/internal/admit":     "New",
	"abacus/internal/predictor": "NewMemoized NewPerturbed Oracle",
	"abacus/internal/calib":     "NewCalibrated",
}

// stackPartsAllowed maps "file: pkg.Func" (file relative to the module
// root) to why that file builds the part itself.
var stackPartsAllowed = map[string]string{
	"abacus.go: predictor.Oracle": "the library facade's Oracle() is the exact model of a full A100, with no device to read",
}

// TestOneNodeStack scans every non-test Go file of the root module (bench/
// is its own module) for references to a stack part outside internal/fleet.
func TestOneNodeStack(t *testing.T) {
	root := filepath.Join("..", "..")
	used := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "bench" || rel == "internal/fleet" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		watched := map[string]string{} // local import name → watched function names
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if funcs, ok := stackParts[p]; ok {
				name := p[strings.LastIndex(p, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				watched[name] = funcs
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || !strings.Contains(" "+watched[pkg.Name]+" ", " "+sel.Sel.Name+" ") {
				return true
			}
			key := rel + ": " + pkg.Name + "." + sel.Sel.Name
			used[key] = true
			if _, ok := stackPartsAllowed[key]; !ok {
				t.Errorf("%s outside internal/fleet: build the node with fleet.NewStack, a default oracle with predictor.ForDevice", key)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range stackPartsAllowed {
		if !used[key] {
			t.Errorf("allow-list entry %q matches nothing; delete it", key)
		}
	}
}
