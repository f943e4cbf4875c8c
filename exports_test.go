package rlnoc

// The readers' guard. An exported name under internal/ is API for the
// rest of the module; one that only tests call is code the program does
// not run, so it either goes or is named here with the test that needs
// it. Reads come from non-test Go anywhere in the module (cmd/, examples/
// and the benchmark module included) and are matched by name: x.Name for
// a method or a package-level name of another package, a bare Name
// inside the declaring package.

import (
	"go/ast"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports are the exported names whose only readers are tests,
// each with the test that needs it. An interface method is called by
// the standard library, never by name.
var testOnlyExports = map[string]string{
	// The dense-scan referee the active-set equivalence compares against.
	"network.Network.SetDenseScan": "TestActiveSetMatchesDenseScan",
	// The closed-form oracle the transient thermal step must converge to.
	"thermal.Grid.SteadyState": "TestStepConvergesToSteadyState",
	// The draw count a restore must reproduce (the type goes with one
	// RNG family).
	"snap.CountingSource.Draws": "TestCountingSourceRestore",
	// errors.Is and errors.As call Unwrap.
	"core.AbortError.Unwrap":   "TestObserverAbortStopsAtObservedCycle",
	"snap.CorruptError.Unwrap": "TestCorruptWrapping",
	// math/rand calls Int63 through rand.Source.
	"snap.CountingSource.Int63": "TestCountingSourceMatchesStdlib",
}

// exportedDecl is one exported package-level name or method declared in
// non-test Go under internal/.
type exportedDecl struct {
	dir, key string // key is pkg.Name or pkg.Type.Method
	name     string
	method   bool
	pos      string
}

// addExports records f's exported package-level names and methods.
func (d *moduleDecls) addExports(f *ast.File, dir, file string) {
	pkg := f.Name.Name
	add := func(id *ast.Ident, recv string) {
		if !id.IsExported() {
			return
		}
		key := pkg + "." + id.Name
		if recv != "" {
			key = pkg + "." + recv + "." + id.Name
		}
		d.exports = append(d.exports, exportedDecl{dir: dir, key: key, name: id.Name, method: recv != "", pos: file})
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			recv := ""
			if decl.Recv != nil {
				recv = typeName(decl.Recv.List[0].Type)
			}
			add(decl.Name, recv)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						add(n, "")
					}
				case *ast.TypeSpec:
					add(spec.Name, "")
				}
			}
		}
	}
}

// addReaders records the names f reads: every selected name, and every
// bare identifier that is not the name a declaration introduces.
func (d *moduleDecls) addReaders(f *ast.File, dir string) {
	declared := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			d.selected[n.Sel.Name] = true
			declared[n.Sel] = true
		case *ast.FuncDecl:
			declared[n.Name] = true
		case *ast.TypeSpec:
			declared[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				declared[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				declared[id] = true
			}
		case *ast.Ident:
			if !declared[n] {
				if d.bare[dir] == nil {
					d.bare[dir] = map[string]bool{}
				}
				d.bare[dir][n.Name] = true
			}
		}
		return true
	})
}

// read reports whether non-test Go reads e.
func (d *moduleDecls) read(e exportedDecl) bool {
	return d.selected[e.name] || (!e.method && d.bare[e.dir][e.name])
}

// TestExportsHaveReaders: every exported package-level name and method in
// non-test Go under internal/ has a non-test reader, or is on
// testOnlyExports with a test that exists; and no entry there has gained
// a reader.
func TestExportsHaveReaders(t *testing.T) {
	d := parseModule(t)
	if len(d.exports) < 300 {
		t.Fatalf("found %d exported names under internal/; the scan is broken", len(d.exports))
	}
	declared := map[string]bool{}
	var unread []string
	for _, e := range d.exports {
		declared[e.key] = true
		_, listed := testOnlyExports[e.key]
		switch read := d.read(e); {
		case read && listed:
			t.Errorf("%s (%s) has a non-test reader now; drop it from testOnlyExports", e.key, e.pos)
		case !read && !listed:
			unread = append(unread, e.key+" ("+e.pos+")")
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("%s is read only by tests: delete it, or list it in testOnlyExports with the test that needs it", u)
	}
	for key, test := range testOnlyExports {
		if !declared[key] {
			t.Errorf("testOnlyExports lists %s, which is not declared", key)
		}
		if !strings.HasPrefix(test, "Test") || !d.names[test] {
			t.Errorf("testOnlyExports names %s for %s, which is not a declared test", test, key)
		}
	}
}
