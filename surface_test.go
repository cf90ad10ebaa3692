package abacus_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// surfaceAllowed names exported functions and methods under internal/ that
// no non-test Go file references, with why each stays. Keys are
// "pkg.Func" or "pkg.Type.Method", pkg relative to internal/.
var surfaceAllowed = map[string]string{
	"admit.Degrade.AnyActive":             "test hook: degraded-mode tests",
	"core.Runtime.Submit":                 "the runtime's direct entry point; core, realtime and root benchmarks drive a node through it",
	"dnn.Cost.Zero":                       "test hook: cost-model tests",
	"dnn.Model.ValidateTopology":          "test hook: the zoo's topology test",
	"executor.Executor.CheckpointedBytes": "test hook: checkpoint accounting tests",
	"gpusim.CheckedSpecs.Specs":           "test hook: spec-table tests read a span's specs",
	"gpusim.Device.CollectTrace":          "test hook: executor tests measure overlap on the kernel trace",
	"gpusim.OverlapTime":                  "test hook: executor tests measure overlap on the kernel trace",
	"gpusim.Device.Degradation":           "test hook: fault-window tests read the device's slowdown",
	"gpusim.Device.LaunchStall":           "test hook: fault-window tests read the launch stall",
	"gpusim.Device.PooledKernels":         "test hook: pool tests",
	"gpusim.Device.Prewarm":               "test hook: pool-transparency tests",
	"gpusim.Device.Resident":              "test hook: in-place differential tests",
	"gpusim.Device.SMTime":                "test hook: in-place differential and pool tests",
	"predictor.Perturbed.Healthy":         "test hook: perturbation tests",
	"scaler.Controller.Phase":             "test hook: lifecycle tests read one node's phase",
	"sched.Query.Remaining":               "test hook: controller tests",
	"sim.Engine.FreeEvents":               "test hook: event-pool tests",
	"sim.Engine.Pending":                  "test hook: engine and pool tests",
	"sim.Engine.Popped":                   "test hook: the give-up test counts queue pops",
	"sim.Engine.Prewarm":                  "test hook: event-pool tests",
	"sim.Handle.Active":                   "test hook: engine tests check a handle's lifetime",
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
// that no non-test Go file in the repository uses — the root module and the
// benchmark module (bench/), whose imports of internal/ are frozen. Uses are
// resolved by type, so a method shares nothing with another type's method of
// the same name: it counts as used through a selection of it (a call, a
// method value or a method expression, promoted ones included), or when its
// type implements an interface whose method of that name is itself used —
// a call through a generic constraint is one — or when the standard library
// calls it by name (implicitMethods).
func TestNoDeadSurface(t *testing.T) {
	imp := loadRepo(t)

	// Every exported function and concrete-type method declared under
	// internal/, keyed "pkg.Func" or "pkg.Type.Method".
	decls := map[*types.Func]string{}
	for ip, pkg := range imp.pkgs {
		rel, ok := strings.CutPrefix(ip, "abacus/internal/")
		if !ok || pkg == nil {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					decls[obj] = rel + "." + name
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() || types.IsInterface(named) {
					continue
				}
				for i := range named.NumMethods() {
					if m := named.Method(i); m.Exported() {
						decls[m] = rel + "." + name + "." + m.Name()
					}
				}
			}
		}
	}

	used := map[*types.Func]bool{}
	var ifaceMethods []*types.Func // interface methods that are used
	for _, obj := range imp.info.Uses {
		f, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		f = f.Origin()
		if !used[f] && isInterfaceMethod(f) {
			ifaceMethods = append(ifaceMethods, f)
		}
		used[f] = true
	}
	referenced := func(f *types.Func) bool {
		if used[f] || (implicitMethods[f.Name()] && recvType(f) != nil) {
			return true
		}
		for _, im := range ifaceMethods {
			if im.Name() == f.Name() && recvType(f) != nil && implements(recvType(f), im) {
				return true
			}
		}
		return false
	}

	var dead []string
	declaredKeys := map[string]bool{}
	for f, key := range decls {
		declaredKeys[key] = true
		_, allowed := surfaceAllowed[key]
		switch ok := referenced(f); {
		case allowed && ok:
			t.Errorf("allow-list entry %q is referenced now; delete the entry", key)
		case !allowed && !ok:
			dead = append(dead, key)
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

// recvType returns a method's receiver type without its pointer, or nil for
// a plain function.
func recvType(f *types.Func) types.Type {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return p.Elem()
	}
	return recv.Type()
}

func isInterfaceMethod(f *types.Func) bool {
	t := recvType(f)
	return t != nil && types.IsInterface(t)
}

// implements reports whether T or *T implements the interface that declares
// method im.
func implements(t types.Type, im *types.Func) bool {
	iface := recvType(im).Underlying().(*types.Interface)
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// optionsAllowed names exported option fields under internal/ that no
// non-test Go file sets, with why each stays. Keys are "pkg.Type.Field",
// pkg relative to internal/.
var optionsAllowed = map[string]string{
	"server.Config.MaxBodyBytes":          "deployment safety limit: an operator sizes it to their clients",
	"server.Config.ReadHeaderTimeout":     "deployment safety limit: the slow-loris guard an operator tunes",
	"server.Config.ReadTimeout":           "deployment safety limit: an operator tunes it to their network",
	"server.RetryPolicy.BaseBackoff":      "client backoff schedule: a caller shapes it to its own SLO; tests drive it",
	"server.RetryPolicy.Jitter":           "client backoff schedule: a caller shapes it to its own SLO; tests drive it",
	"server.RetryPolicy.MaxBackoff":       "client backoff schedule: a caller shapes it to its own SLO; tests drive it",
	"server.RetryPolicy.Multiplier":       "client backoff schedule: a caller shapes it to its own SLO; tests drive it",
	"server.RetryPolicy.SLOBudget":        "client backoff schedule: a caller shapes it to its own SLO; tests drive it",
	"serving.CapacityConfig.HiQPS":        "search bracket: tests narrow it to reach the bracket-floor branch",
	"serving.CapacityConfig.LoQPS":        "search bracket: tests narrow it to reach the bracket-floor branch",
	"serving.CapacityConfig.ToleranceQPS": "search bracket: tests coarsen it to keep capacity searches short",
}

// TestNoUnsetOptions fails on an exported field of an exported *Config,
// *Policy, Scenario or Options struct under internal/ that no non-test Go
// file of the root or benchmark module sets: such a field runs at one value
// everywhere, so it belongs in a named constant beside the code that reads
// it. A field counts as set by a keyed composite literal, by an unkeyed one,
// or by an assignment — except an assignment through the enclosing
// function's own parameter or receiver of the field's struct type, which is
// defaulting, not a caller's choice.
func TestNoUnsetOptions(t *testing.T) {
	imp := loadRepo(t)
	info := imp.info

	// Every candidate field, keyed by its object.
	fields := map[*types.Var]string{}
	for ip, pkg := range imp.pkgs {
		rel, ok := strings.CutPrefix(ip, "abacus/internal/")
		if !ok || pkg == nil {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !optionType(name) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() {
					fields[f] = rel + "." + name + "." + f.Name()
				}
			}
		}
	}

	set := map[*types.Var]bool{}
	for _, f := range imp.files {
		var params map[types.Object]bool // the innermost enclosing function's parameters and receiver
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				outer := params
				params = paramObjects(info, n.Recv, n.Type)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				params = outer
				return false
			case *ast.FuncLit:
				outer := params
				params = paramObjects(info, nil, n.Type)
				ast.Inspect(n.Body, visit)
				params = outer
				return false
			case *ast.CompositeLit:
				st, ok := structOf(info.Types[n].Type)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := info.Uses[key].(*types.Var); ok {
								set[v] = true
							}
						}
					} else {
						set[st.Field(i)] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markAssigned(info, set, params, lhs)
				}
			case *ast.IncDecStmt:
				markAssigned(info, set, params, n.X)
			}
			return true
		}
		ast.Inspect(f, visit)
	}

	var unset []string
	for f, key := range fields {
		_, allowed := optionsAllowed[key]
		switch {
		case allowed && set[f]:
			t.Errorf("allow-list entry %q is set now; delete the entry", key)
		case !allowed && !set[f]:
			unset = append(unset, key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		t.Errorf("option %s is set by no caller outside tests, so it only ever runs at its default: make it a constant, or allow-list it with a reason", key)
	}
	keys := map[string]bool{}
	for _, key := range fields {
		keys[key] = true
	}
	for key := range optionsAllowed {
		if !keys[key] {
			t.Errorf("allow-list entry %q names no option field", key)
		}
	}
}

// optionType reports whether a struct type name marks an options bundle.
func optionType(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Policy") ||
		name == "Scenario" || name == "Options"
}

// structOf returns the struct a composite literal of type t builds.
func structOf(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

func paramObjects(info *types.Info, recv *ast.FieldList, ft *ast.FuncType) map[types.Object]bool {
	objs := map[types.Object]bool{}
	for _, fl := range []*ast.FieldList{recv, ft.Params} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				objs[info.Defs[name]] = true
			}
		}
	}
	return objs
}

// markAssigned records the field an assignment's left-hand side writes,
// unless it writes through the enclosing function's own parameter or
// receiver of the field's struct type.
func markAssigned(info *types.Info, set map[*types.Var]bool, params map[types.Object]bool, lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	v := s.Obj().(*types.Var)
	if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok && len(s.Index()) == 1 && params[info.Uses[base]] {
		return
	}
	set[v] = true
}

// repo holds the root and benchmark modules type-checked from their
// non-test sources, loaded once for both surface tests.
var repo struct {
	once sync.Once
	imp  *sourceImporter
	err  error
}

// loadRepo type-checks every package directory of both modules, once.
func loadRepo(t *testing.T) *sourceImporter {
	repo.once.Do(func() {
		info := &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		imp := &sourceImporter{fset: token.NewFileSet(), std: importer.Default(), info: info, pkgs: map[string]*types.Package{}}
		repo.imp = imp
		repo.err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			_, err = imp.load(importPath(p), p)
			return err
		})
	})
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.imp
}

// importPath maps a directory of the root or benchmark module to its import
// path.
func importPath(dir string) string {
	dir = filepath.ToSlash(dir)
	if dir == "." {
		return "abacus"
	}
	return "abacus/" + dir
}

// sourceImporter type-checks the repository's packages from their non-test
// source files and leaves the standard library to the default importer.
type sourceImporter struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package
	files []*ast.File
}

func (imp *sourceImporter) Import(ip string) (*types.Package, error) {
	if ip != "abacus" && !strings.HasPrefix(ip, "abacus/") {
		return imp.std.Import(ip)
	}
	dir := "."
	if ip != "abacus" {
		dir = filepath.FromSlash(strings.TrimPrefix(ip, "abacus/"))
	}
	return imp.load(ip, dir)
}

// load type-checks the package in dir once; a directory without non-test Go
// files yields nil.
func (imp *sourceImporter) load(ip, dir string) (*types.Package, error) {
	if pkg, ok := imp.pkgs[ip]; ok {
		return pkg, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(imp.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		imp.pkgs[ip] = nil
		return nil, nil
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(ip, imp.fset, files, imp.info)
	if err != nil {
		return nil, err
	}
	imp.pkgs[ip] = pkg
	imp.files = append(imp.files, files...)
	return pkg, nil
}
