package rlnoc

// The documents' guard. DESIGN.md and README.md name code in backticks,
// Go comments and CI cite DESIGN.md by section, and DESIGN.md §7 maps the
// module's directories. Each drifts silently when code moves, so these
// tests resolve every such name against the module's own declarations,
// parsed with go/parser:
//
//   - `pkg.Ident`, `Type.Member` and `pkg.Type.Member` against declared
//     package-level names, methods, struct fields and interface methods;
//   - `TestXxx`, `FuzzXxx`, `BenchmarkXxx` (a trailing * is a prefix) and
//     any other mixed-case bare name against declared names;
//   - config keys (`rl.mode_mask`) against internal/config's json tags,
//     and metric names (`network.step_s`) against BENCHMARK.json;
//   - stdlib names (`sync.Pool`) against a short list of packages;
//   - file names and paths against the tree.
//
// A span that is none of these shapes (a command line, an expression, a
// literal) is prose and is not checked. A local-variable form such as
// `c.Decoding()` is a reference that resolves to nothing: write the type.

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// stdlibPackages are the standard-library packages the documents may
// cite, by import path and by name.
var stdlibPackages = map[string]bool{
	"bufio": true, "bytes": true, "context": true, "encoding/binary": true,
	"binary": true, "encoding/json": true, "json": true, "errors": true,
	"flag": true, "fmt": true, "go/parser": true, "parser": true,
	"go/types": true, "types": true,
	"hash/crc32": true, "crc32": true, "hash/fnv": true, "fnv": true,
	"io": true, "math": true, "math/bits": true, "bits": true,
	"math/rand": true, "rand": true, "os": true, "reflect": true,
	"runtime": true, "sort": true, "strconv": true, "strings": true,
	"sync": true, "sync/atomic": true, "atomic": true, "testing": true,
	"time": true, "slices": true, "maps": true,
}

// moduleDecls is what the module declares, from one parse of every Go
// file in the repository (the benchmark module included).
type moduleDecls struct {
	pkgs    map[string]map[string]bool // package name → package-level names
	members map[string]map[string]bool // type name → methods and fields
	embeds  map[string][]string        // type name → embedded type names
	aliases map[string]string          // alias name → aliased type name
	names   map[string]bool            // every declared name of any kind
	structs map[string]*ast.StructType // internal/config's struct types
	paths   map[string]bool            // every file and directory, slash-separated
	bases   map[string]bool            // every file's base name
	goDirs  map[string]bool            // directories holding Go files
}

func parseModule(t *testing.T) *moduleDecls {
	t.Helper()
	d := &moduleDecls{
		pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{},
		embeds: map[string][]string{}, aliases: map[string]string{},
		names: map[string]bool{}, structs: map[string]*ast.StructType{},
		paths: map[string]bool{".": true}, bases: map[string]bool{}, goDirs: map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if path != "." && strings.HasPrefix(e.Name(), ".") {
			if e.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		path = filepath.ToSlash(path)
		d.paths[path] = true
		if e.IsDir() {
			return nil
		}
		d.bases[e.Name()] = true
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		d.goDirs[dir] = true
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		d.addFile(f, dir == "internal/config")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func (d *moduleDecls) addFile(f *ast.File, isConfig bool) {
	pkg := f.Name.Name
	if d.pkgs[pkg] == nil {
		d.pkgs[pkg] = map[string]bool{}
	}
	top := func(name string) {
		d.names[name] = true
		if pkg != "main" {
			d.pkgs[pkg][name] = true
		}
	}
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
		d.names[name] = true
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				top(decl.Name.Name)
			} else {
				member(typeName(decl.Recv.List[0].Type), decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						top(n.Name)
					}
				case *ast.TypeSpec:
					top(spec.Name.Name)
				}
			}
		}
	}
	// Types declared anywhere, function-local ones included, carry their
	// members.
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		name := spec.Name.Name
		d.names[name] = true
		if spec.Assign != 0 {
			d.aliases[name] = typeName(spec.Type)
		}
		switch typ := spec.Type.(type) {
		case *ast.StructType:
			if isConfig {
				d.structs[name] = typ
			}
			for _, field := range typ.Fields.List {
				if len(field.Names) == 0 {
					embedded := typeName(field.Type)
					member(name, embedded)
					d.embeds[name] = append(d.embeds[name], embedded)
				}
				for _, n := range field.Names {
					member(name, n.Name)
				}
			}
		case *ast.InterfaceType:
			for _, m := range typ.Methods.List {
				for _, n := range m.Names {
					member(name, n.Name)
				}
			}
		}
		return true
	})
}

// typeName is the bare name of a receiver or field type: pointers, type
// parameters and package qualifiers dropped.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// hasMember reports whether typ declares member, through aliases and
// embedded types.
func (d *moduleDecls) hasMember(typ, member string, depth int) bool {
	if depth > 4 {
		return false
	}
	if a, ok := d.aliases[typ]; ok && a != typ {
		return d.hasMember(a, member, depth+1)
	}
	if d.members[typ][member] {
		return true
	}
	for _, e := range d.embeds[typ] {
		if d.hasMember(e, member, depth+1) {
			return true
		}
	}
	return false
}

// configKeys lists every JSON key of config.Config, dotted by nesting.
func (d *moduleDecls) configKeys() map[string]bool {
	keys := map[string]bool{}
	var walk func(st *ast.StructType, prefix string)
	walk = func(st *ast.StructType, prefix string) {
		for _, field := range st.Fields.List {
			if field.Tag == nil {
				continue
			}
			tag, err := strconv.Unquote(field.Tag.Value)
			if err != nil {
				continue
			}
			name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
			if name == "" || name == "-" {
				continue
			}
			keys[prefix+name] = true
			if sub, ok := d.structs[typeName(field.Type)]; ok {
				walk(sub, prefix+name+".")
			}
		}
	}
	if st, ok := d.structs["Config"]; ok {
		walk(st, "")
	}
	return keys
}

// benchmarkMetrics lists the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		names[m.Name] = true
	}
	return names
}

var (
	backtickSpan = regexp.MustCompile("`([^`]+)`")
	receiverForm = regexp.MustCompile(`\(\*?([A-Za-z_]\w*)\)\.`)
	callOrIndex  = regexp.MustCompile(`^([\w.]+)(\(.*\)|\[.*\])$`)
	dottedName   = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$`)
	pathName     = regexp.MustCompile(`^[A-Za-z_][\w.\-]*(/[\w.\-]+)*/?$`)
	testName     = regexp.MustCompile(`^(Test|Fuzz|Benchmark)[A-Z_0-9]`)
	fileExt      = regexp.MustCompile(`\.(go|md|json|yml|sh|txt)$`)
)

// resolver checks one backticked span.
type resolver struct {
	d       *moduleDecls
	keys    map[string]bool
	metrics map[string]bool
}

// check reports whether span is a reference and, if so, whether it
// resolves.
func (r *resolver) check(span string) (isRef, ok bool) {
	s := strings.TrimSpace(span)
	s = strings.TrimLeft(s, "*&")
	s = strings.TrimPrefix(s, "[]")
	s = receiverForm.ReplaceAllString(s, "$1.")
	if m := callOrIndex.FindStringSubmatch(s); m != nil {
		s = m[1]
	}
	glob := strings.HasSuffix(s, "*")
	s = strings.TrimSuffix(s, "*")

	if stdlibPackages[s] {
		return true, true
	}
	if strings.Contains(s, "/") || fileExt.MatchString(s) {
		if !pathName.MatchString(s) {
			return false, false
		}
		p := strings.TrimSuffix(s, "/")
		return true, r.d.paths[p] || (!strings.Contains(p, "/") && r.d.bases[p])
	}
	if glob {
		for name := range r.metrics {
			if strings.HasPrefix(name, s) {
				return true, true
			}
		}
		if testName.MatchString(s) {
			for name := range r.d.names {
				if strings.HasPrefix(name, s) {
					return true, true
				}
			}
		}
		return dottedName.MatchString(s), false
	}
	if !dottedName.MatchString(s) {
		return false, false
	}
	parts := strings.Split(s, ".")
	if len(parts) == 1 {
		if !testName.MatchString(s) && !mixedCase(s) {
			return false, false
		}
		return true, r.d.names[s]
	}
	if r.keys[s] || r.metrics[s] {
		return true, true
	}
	if stdlibPackages[parts[0]] {
		return true, len(parts) == 2
	}
	switch len(parts) {
	case 2:
		if r.d.pkgs[parts[0]][parts[1]] {
			return true, true
		}
		return true, r.d.hasMember(parts[0], parts[1], 0)
	case 3:
		return true, r.d.pkgs[parts[0]][parts[1]] && r.d.hasMember(parts[1], parts[2], 0)
	}
	return true, false
}

// mixedCase is a bare name that reads as Go: both cases, not ALL_CAPS.
func mixedCase(s string) bool {
	return strings.ToLower(s) != s && strings.ToUpper(s) != s
}

// docSpans returns the inline code spans of a Markdown file outside its
// fenced blocks, each with its line number.
func docSpans(t *testing.T, name string) (spans []string, lines []int) {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Split(string(data), "\n")
	fenced := false
	for i, l := range text {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			text[i] = ""
		} else if fenced {
			text[i] = ""
		}
	}
	body := strings.Join(text, "\n")
	for _, m := range backtickSpan.FindAllStringSubmatchIndex(body, -1) {
		spans = append(spans, body[m[2]:m[3]])
		lines = append(lines, 1+strings.Count(body[:m[0]], "\n"))
	}
	return spans, lines
}

// TestDocRefsResolve: every backticked reference in DESIGN.md and
// README.md names something that exists.
func TestDocRefsResolve(t *testing.T) {
	d := parseModule(t)
	r := &resolver{d: d, keys: d.configKeys(), metrics: benchmarkMetrics(t)}
	if len(r.keys) < 32 || !r.keys["rl.mode_mask"] {
		t.Fatalf("found %d config keys; the walk of config.Config is broken", len(r.keys))
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		spans, lines := docSpans(t, doc)
		refs := 0
		for i, span := range spans {
			isRef, ok := r.check(span)
			if !isRef {
				continue
			}
			refs++
			if !ok {
				t.Errorf("%s:%d: `%s` names nothing in the module", doc, lines[i], span)
			}
		}
		if refs < 20 {
			t.Errorf("%s: only %d references checked; the span scan is broken", doc, refs)
		}
	}
}

// designSections returns DESIGN.md's numbered sections: number → body.
func designSections(t *testing.T) map[int]string {
	t.Helper()
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[int]string{}
	heading := regexp.MustCompile(`(?m)^## (\d+)\. .*$`)
	locs := heading.FindAllStringSubmatchIndex(string(data), -1)
	for i, m := range locs {
		n, _ := strconv.Atoi(string(data[m[2]:m[3]]))
		end := len(data)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		sections[n] = string(data[m[1]:end])
	}
	return sections
}

var (
	lineBreak  = regexp.MustCompile(`\s*\n\s*`)
	goBreak    = regexp.MustCompile(`\s*\n\s*(//)?\s*`)
	yamlBreak  = regexp.MustCompile(`\s*\n\s*#?\s*`)
	designCite = regexp.MustCompile(`DESIGN\.md[,:]?\s*\(?(?:§\s?|[Ss]ections?\s+)(\d+)`)
	goCite     = regexp.MustCompile(`(?:DESIGN\.md[,:]?\s*\(?(?:§\s?|[Ss]ections?\s+)|§\s?)(\d+)`)
	selfCite   = regexp.MustCompile(`(?:§\s?|\b[Ss]ections?\s+)(\d+)`)
)

// TestDocSectionCitations: every "DESIGN.md §N" (or "DESIGN.md section
// N") in the Go sources, CI, README.md, EXPERIMENTS.md and ROADMAP.md,
// every bare §N in a Go comment, and every §N or "section N" inside
// DESIGN.md names a section DESIGN.md has.
func TestDocSectionCitations(t *testing.T) {
	sections := designSections(t)
	if len(sections) < 7 {
		t.Fatalf("found %d numbered sections in DESIGN.md; the heading scan is broken", len(sections))
	}
	files := []string{".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md", "ROADMAP.md", "DESIGN.md"}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cites := 0
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		// A citation may break across lines, and in a comment the
		// next line starts with its comment marker.
		text, pattern := lineBreak.ReplaceAllString(string(data), " "), designCite
		switch {
		case strings.HasSuffix(name, ".go"):
			text, pattern = goBreak.ReplaceAllString(string(data), " "), goCite
		case strings.HasSuffix(name, ".yml"):
			text = yamlBreak.ReplaceAllString(string(data), " ")
		case name == "DESIGN.md":
			pattern = selfCite
		}
		for _, m := range pattern.FindAllStringSubmatch(text, -1) {
			n, _ := strconv.Atoi(m[1])
			cites++
			if _, ok := sections[n]; !ok {
				t.Errorf("%s cites DESIGN.md §%d, which does not exist (%q)", name, n, m[0])
			}
		}
	}
	if cites < 100 {
		t.Errorf("found %d section citations; the scan is broken", cites)
	}
}

// TestDocModuleMap: DESIGN.md §7's tree lists every directory that holds
// Go code, and every path it names exists.
func TestDocModuleMap(t *testing.T) {
	d := parseModule(t)
	body := designSections(t)[7]
	start := strings.Index(body, "```\n")
	end := strings.LastIndex(body, "```")
	if start < 0 || end <= start {
		t.Fatal("DESIGN.md §7 has no fenced module tree")
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(body[start+4:end], "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || len(line)-len(strings.TrimLeft(line, " ")) > 4 {
			continue // blank, or the continuation of a description
		}
		path := strings.TrimSuffix(fields[0], "/")
		if path == "rlnoc" {
			path = "."
		}
		listed[path] = true
		if !d.paths[path] {
			t.Errorf("DESIGN.md §7 lists %s, which does not exist", fields[0])
		}
	}
	for dir := range d.goDirs {
		if !listed[dir] {
			t.Errorf("DESIGN.md §7 omits %s/, which holds Go code", dir)
		}
	}
}

// TestDesignDocShape: DESIGN.md stays within 1,000 lines, and each
// engineering section (§7 onward) states its invariant, the code that
// holds it and the test that checks it.
func TestDesignDocShape(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n > 1000 {
		t.Errorf("DESIGN.md is %d lines, want at most 1,000", n)
	}
	for n, body := range designSections(t) {
		if n < 7 {
			continue
		}
		for _, label := range []string{"**Invariant.**", "**Code.**", "**Test.**"} {
			if !strings.Contains(body, label) {
				t.Errorf("DESIGN.md §%d lacks its %s paragraph", n, label)
			}
		}
	}
}
