package colab_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptInternalAPI lists the exported functions under internal/ that stay
// although no non-test file references them, each with its reason. The
// keys are written pkg.Func, pkg.Type.Method or pkg.Type.* for every
// method of a type. Everything perfbench calls stays too: perfbench's
// files are scanned as non-test references.
var keptInternalAPI = map[string]string{
	"mathx.RNG.*":                    "the public colab.RNG authoring API; the counter stream CI step pins every method",
	"task.Mask.Set":                  "driven by FuzzMaskEquivalence against the reference mask models",
	"task.Mask.Clear":                "driven by FuzzMaskEquivalence against the reference mask models",
	"task.Mask.Or":                   "driven by FuzzMaskEquivalence against the reference mask models",
	"topo.Parse":                     "driven by FuzzTopologyCanonical (Parse/Canonical round trip)",
	"kernel.Machine.CheckInvariants": "the kernel's safety check, run by tests after every event",
	"kernel.Machine.Config":          "read accessor custom policies use through colab.Machine",
	"kernel.Machine.Workload":        "read accessor custom policies use through colab.Machine",
	"kernel.Machine.Topology":        "read accessor custom policies use through colab.Machine",
	"kernel.Core.FreqMHz":            "read accessor custom policies use through colab.Core",
	"kernel.Machine.Engine":          "custom Scheduler policies arm their periodic work on it through colab.Machine (a pipeline's labeling pass is armed by the pipeline)",
	"kernel.Machine.Done":            "custom Scheduler policies end their periodic work on it through colab.Machine",
}

// stdInterfaces are the standard-library interfaces whose methods count as
// used when a type satisfies them: the runtime or the standard library
// calls them, not code in this module.
var stdInterfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"},
	{"net/http", "Handler"},
	{"sort", "Interface"},
	{"encoding/json", "Marshaler"},
}

// apiScan type-checks the module's and perfbench's non-test files from
// source, recording every identifier use in one types.Info.
type apiScan struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	info  *types.Info
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
}

func (s *apiScan) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

func (s *apiScan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != "colab" && !strings.HasPrefix(path, "colab/") {
		return s.std.ImportFrom(path, dir, mode)
	}
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, "colab"), "/")
	if rel == "" {
		rel = "."
	}
	bp, err := build.ImportDir(filepath.FromSlash(rel), 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: s}
	p, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	s.pkgs[path], s.files[path] = p, files
	return p, nil
}

// TestNoUnusedInternalAPI fails on every exported function or method under
// internal/ that no non-test file of the module or of perfbench
// references, unless it implements an interface or is on keptInternalAPI.
func TestNoUnusedInternalAPI(t *testing.T) {
	fset := token.NewFileSet()
	s := &apiScan{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
	var paths []string
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(p, 0); err == nil {
			paths = append(paths, strings.TrimSuffix("colab/"+filepath.ToSlash(p), "/."))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if _, err := s.Import(p); err != nil {
			t.Fatal(err)
		}
	}

	// Each function's own body does not count as a use of it.
	type decl struct {
		fn       *types.Func
		from, to token.Pos
	}
	var decls []decl
	for path, files := range s.files {
		if !strings.HasPrefix(path, "colab/internal/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					decls = append(decls, decl{s.info.Defs[fd.Name].(*types.Func), fd.Pos(), fd.End()})
				}
			}
		}
	}
	owner := map[*types.Func]decl{}
	for _, d := range decls {
		owner[d.fn] = d
	}
	used := map[*types.Func]bool{}
	for id, obj := range s.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if d, ok := owner[fn]; ok && id.Pos() >= d.from && id.Pos() < d.to {
			continue
		}
		used[fn] = true
	}

	var ifaces []*types.Interface
	for _, p := range s.pkgs {
		for _, name := range p.Scope().Names() {
			if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, si := range stdInterfaces {
		p, err := s.std.ImportFrom(si.pkg, ".", 0)
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, p.Scope().Lookup(si.name).Type().Underlying().(*types.Interface))
	}
	implements := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, it := range ifaces {
			if !types.Implements(recv, it) && !types.Implements(types.NewPointer(recv), it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() {
					return true
				}
			}
		}
		return false
	}

	seenKeys := map[string]bool{}
	var unused []string
	for _, d := range decls {
		key := apiKey(d.fn)
		wild := key[:strings.LastIndex(key, ".")] + ".*"
		if _, ok := keptInternalAPI[key]; ok {
			seenKeys[key] = true
			continue
		}
		if _, ok := keptInternalAPI[wild]; ok {
			seenKeys[wild] = true
			continue
		}
		if used[d.fn] || (d.fn.Type().(*types.Signature).Recv() != nil && implements(d.fn)) {
			continue
		}
		pos := fset.Position(d.from)
		unused = append(unused, fmt.Sprintf("%s:%d: %s has no reference from a non-test file", pos.Filename, pos.Line, key))
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Error(u)
	}
	for key := range keptInternalAPI {
		if !seenKeys[key] {
			t.Errorf("keptInternalAPI names %s, which does not exist", key)
		}
	}
}

// apiKey names fn as pkg.Func or pkg.Type.Method.
func apiKey(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return fn.Pkg().Name() + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
}
