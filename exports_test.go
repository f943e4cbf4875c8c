package rlnoc

// The readers' guard. An exported name under internal/ is API for the
// rest of the module; one that only tests call is code the program does
// not run, so it either goes or is named here with the test that needs
// it. Readers are resolved with go/types, so a use counts for the one
// declaration it names, never for another of the same name: every
// non-test package of this module and of the benchmark module is
// type-checked from source in dependency order, over the standard
// library's export data from one `go list -export -deps` per module.
//
// A name is read when a use in non-test Go resolves to it, or when it is
// a method implementing an interface method such a use resolves to. The
// standard library calls fmt.Stringer, error, Unwrap() error and
// rand.Source64 methods where no use shows it; calledByStdlib holds
// those uses.

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports are the exported names whose only readers are tests,
// each with the test that needs it.
var testOnlyExports = map[string]string{
	// The dense-scan referee the active-set equivalence compares against.
	"network.Network.SetDenseScan": "TestActiveSetMatchesDenseScan",
	// The closed-form oracle the transient thermal step must converge to.
	"thermal.Grid.SteadyState": "TestStepConvergesToSteadyState",
	// The draw count a restore must reproduce (the type goes with one
	// RNG family).
	"snap.CountingSource.Draws": "TestCountingSourceRestore",
	// The flit pools' leak oracle: every get is put back.
	"flit.Pool.Stats": "TestFlitPoolSteadyStateRecycles",
	"flit.Pool.Size":  "TestFlitPoolBalances",
}

// calledByStdlib is type-checked with the module: its uses stand for the
// standard library's calls through these interfaces.
const calledByStdlib = `package calledbystdlib

import (
	"fmt"
	"math/rand"
)

func _(s fmt.Stringer, e error, w interface{ Unwrap() error }, r rand.Source64) {
	_, _, _ = s.String, e.Error, w.Unwrap
	_, _, _ = r.Int63, r.Uint64, r.Seed
}
`

// listedPackage is the part of `go list -json` output the guard reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// goList lists the packages ./... of the module in dir needs, each after
// its dependencies, with their export data built.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// typedModule is the non-test Go of both modules, type-checked as one
// program.
type typedModule struct {
	fset     *token.FileSet
	internal []*types.Package // the packages under internal/
	uses     map[*ast.Ident]types.Object
}

func checkModule(t *testing.T) *typedModule {
	t.Helper()
	pkgs := append(goList(t, "."), goList(t, "benchmark")...)
	exportData := map[string]string{}
	for _, p := range pkgs {
		if p.Standard {
			exportData[p.ImportPath] = p.Export
		}
	}
	m := &typedModule{fset: token.NewFileSet(), uses: map[*ast.Ident]types.Object{}}
	std := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exportData[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	info := &types.Info{Uses: m.uses}
	check := func(path string, files []*ast.File) *types.Package {
		pkg, err := conf.Check(path, m.fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		return pkg
	}
	for _, p := range pkgs {
		if p.Standard || checked[p.ImportPath] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		checked[p.ImportPath] = check(p.ImportPath, files)
		if strings.HasPrefix(p.ImportPath, "rlnoc/internal/") {
			m.internal = append(m.internal, checked[p.ImportPath])
		}
	}
	f, err := parser.ParseFile(m.fset, "calledbystdlib.go", calledByStdlib, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("calledbystdlib", []*ast.File{f})
	return m
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportKey names obj as the allowlist does: pkg.Name, or pkg.Type.Method
// for a method of a named type; "" for anything else.
func exportKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	prefix := obj.Pkg().Name() + "."
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named := receiverNamed(recv.Type())
			if named == nil || types.IsInterface(named) {
				return ""
			}
			return prefix + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return prefix + obj.Name()
}

// receiverNamed is the named type a method receiver of type typ names.
func receiverNamed(typ types.Type) *types.Named {
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	named, _ := typ.(*types.Named)
	if named != nil {
		named = named.Origin()
	}
	return named
}

// exported is one exported package-level name or method declared under
// internal/, with the method's receiver type (nil for a package-level
// name).
type exported struct {
	obj  types.Object
	recv *types.Named
}

func (m *typedModule) exports() []exported {
	var out []exported
	for _, pkg := range m.internal {
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() {
				out = append(out, exported{obj: obj})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Exported() {
					out = append(out, exported{obj: fn, recv: named})
				}
			}
		}
	}
	return out
}

// readKeys is the set of exportKeys non-test Go reads.
func (m *typedModule) readKeys(exports []exported) map[string]bool {
	read := map[string]bool{}
	var ifaceMethods []*types.Func
	for _, obj := range m.uses {
		if key := exportKey(obj); key != "" {
			read[key] = true
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceMethods = append(ifaceMethods, fn)
			}
		}
	}
	byName := map[string][]exported{}
	for _, e := range exports {
		if e.recv != nil {
			byName[e.obj.Name()] = append(byName[e.obj.Name()], e)
		}
	}
	for _, fn := range ifaceMethods {
		iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, e := range byName[fn.Name()] {
			if types.Implements(e.recv, iface) || types.Implements(types.NewPointer(e.recv), iface) {
				read[exportKey(e.obj)] = true
			}
		}
	}
	return read
}

// TestExportsHaveReaders: every exported package-level name and method in
// non-test Go under internal/ has a non-test reader, or is on
// testOnlyExports with a test that exists; and no entry there has gained
// a reader.
func TestExportsHaveReaders(t *testing.T) {
	m := checkModule(t)
	exports := m.exports()
	if len(exports) < 300 {
		t.Fatalf("found %d exported names under internal/; the scan is broken", len(exports))
	}
	read := m.readKeys(exports)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	var unread []string
	for _, e := range exports {
		key := exportKey(e.obj)
		declared[key] = true
		_, listed := testOnlyExports[key]
		switch {
		case read[key] && listed:
			t.Errorf("%s has a non-test reader now; drop it from testOnlyExports", key)
		case !read[key] && !listed:
			pos, _ := filepath.Rel(wd, m.fset.Position(e.obj.Pos()).Filename)
			unread = append(unread, key+" ("+filepath.ToSlash(pos)+")")
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("%s is read only by tests: delete it, or list it in testOnlyExports with the test that needs it", u)
	}
	d := parseModule(t)
	for key, test := range testOnlyExports {
		if !declared[key] {
			t.Errorf("testOnlyExports lists %s, which is not declared", key)
		}
		if !strings.HasPrefix(test, "Test") || !d.names[test] {
			t.Errorf("testOnlyExports names %s for %s, which is not a declared test", test, key)
		}
	}
}
