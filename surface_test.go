package abacus_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowed names exported functions and methods under internal/ that
// no non-test Go file references, with why each stays. Keys are
// "pkg.Func" or "pkg.Type.Method", pkg relative to internal/.
var surfaceAllowed = map[string]string{
	"admit.Admitter.Outstanding":          "test hook: admission and feedback tests read per-service counts",
	"admit.Degrade.AnyActive":             "test hook: degraded-mode tests",
	"core.Runtime.Submit":                 "the runtime's direct entry point; core, realtime and root benchmarks drive a node through it",
	"dnn.Cost.Zero":                       "test hook: cost-model tests",
	"dnn.Model.ValidateTopology":          "test hook: the zoo's topology test",
	"executor.Executor.CheckpointedBytes": "test hook: checkpoint accounting tests",
	"gpusim.Device.CollectTrace":          "test hook: executor tests measure overlap on the kernel trace",
	"gpusim.OverlapTime":                  "test hook: executor tests measure overlap on the kernel trace",
	"gpusim.Device.Degradation":           "test hook: fault-window tests read the device's slowdown",
	"gpusim.Device.LaunchStall":           "test hook: fault-window tests read the launch stall",
	"gpusim.Device.PooledKernels":         "test hook: pool tests",
	"gpusim.Device.Prewarm":               "test hook: pool-transparency tests",
	"gpusim.Device.Resident":              "test hook: in-place differential tests",
	"gpusim.Device.SMTime":                "test hook: in-place differential and pool tests",
	"predictor.Perturbed.Healthy":         "test hook: perturbation tests",
	"sched.Query.Remaining":               "test hook: controller tests",
	"server.Client.Metrics":               "test hook: gateway end-to-end tests scrape /metrics",
	"server.ValidateExposition":           "test hook: gateway end-to-end tests validate /metrics",
	"sim.Engine.FreeEvents":               "test hook: event-pool tests",
	"sim.Engine.Pending":                  "test hook: engine and pool tests",
	"sim.Engine.Prewarm":                  "test hook: event-pool tests",
	"sim.Handle.At":                       "test hook: engine tests",
}

// implicitMethods are called through standard-library interfaces (fmt,
// errors, sort, container/heap, net/http, encoding/json) rather than by name.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true, "ServeHTTP": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "Read": true, "Write": true, "Close": true,
}

// TestNoDeadSurface fails on an exported function or method under internal/
// that no non-test Go file in the repository references — the root module
// and the benchmark module (bench/), whose imports of internal/ are frozen.
// A function counts as referenced by a qualified use from another package or
// by any use of its name inside its own package. A method counts as
// referenced by any selector of its name, or by sharing its name with an
// interface method declared here or in implicitMethods: without type
// information the scan cannot tell receivers apart, so it errs toward
// keeping a method.
func TestNoDeadSurface(t *testing.T) {
	type decl struct{ key, pkg, name string }
	var decls []decl
	pkgIdents := map[string]map[string]bool{} // import path → identifiers used in its files
	qualified := map[string]bool{}            // "import/path.Name" used from another package
	selectors := map[string]bool{}            // every selector name
	ifaceMethods := map[string]bool{}

	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("abacus", filepath.ToSlash(filepath.Dir(p)))
		imports := map[string]string{} // local name → import path
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ip
		}
		if pkgIdents[pkg] == nil {
			pkgIdents[pkg] = map[string]bool{}
		}
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !strings.HasPrefix(pkg, "abacus/internal/") || !fd.Name.IsExported() {
				continue
			}
			rel := strings.TrimPrefix(pkg, "abacus/internal/")
			key := rel + "." + fd.Name.Name
			if fd.Recv != nil {
				key = rel + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key: key, pkg: pkg, name: fd.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selectors[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					qualified[imports[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			case *ast.Ident:
				if !declared[n] {
					pkgIdents[pkg][n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var dead []string
	declaredKeys := map[string]bool{}
	for _, d := range decls {
		declaredKeys[d.key] = true
		method := strings.Count(d.key, ".") == 2
		used := qualified[d.pkg+"."+d.name] || pkgIdents[d.pkg][d.name]
		if method {
			used = selectors[d.name] || ifaceMethods[d.name] || implicitMethods[d.name]
		}
		_, allowed := surfaceAllowed[d.key]
		switch {
		case allowed && used:
			t.Errorf("allow-list entry %q is referenced now; delete the entry", d.key)
		case !allowed && !used:
			dead = append(dead, d.key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is exported under internal/ but nothing outside tests uses it: delete it, or allow-list it with a reason", key)
	}
	for key := range surfaceAllowed {
		if !declaredKeys[key] {
			t.Errorf("allow-list entry %q names no exported function or method", key)
		}
	}
}

// recvName returns the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
