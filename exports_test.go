package oddci

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// exportsAllowlist names the exported identifiers that stay although no
// non-test file mentions them, one per line: the key the scan prints,
// then the reason.
const exportsAllowlist = "testdata/exports_allowlist.txt"

// TestExportsReachedOutsideTests is the API ratchet: every exported
// top-level func, method, type, var and const of the root module must be
// named by some non-test file of the root or benchmark module, or be in
// exportsAllowlist with a reason. Package oddci itself, package main and
// the methods of the types oddci.go aliases are public surface and
// exempt. The scan is by name only (no type checking), so a name that
// collides with a used one passes; as a ratchet it can only under-report.
//
// On a failure, use the name from a non-test caller, unexport it, or
// delete it. Allowlisting is the last resort, and never for a name only
// its own package's tests use.
func TestExportsReachedOutsideTests(t *testing.T) {
	root, err := readModule(".", "oddci", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := readModule("benchmark", "oddci/benchmark")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(exportsAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scanExports(root, []module{bench}, allow)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range rep.unused {
		t.Errorf("%s: exported %s is mentioned by no non-test file (use it, unexport it, delete it, or allowlist it with a reason in %s)",
			u.pos, u.key, exportsAllowlist)
	}
	for _, s := range rep.stale {
		t.Errorf("%s: stale entry %s: the name is used, exempt or gone; remove the line", exportsAllowlist, s)
	}
}

// srcFile is one Go source file of a module, in memory.
type srcFile struct {
	name string // path within the module, slash-separated
	src  []byte
}

// module is a module's path and its Go files.
type module struct {
	path  string
	files []srcFile
}

// readModule loads every .go file under dir, skipping testdata, hidden
// directories and the listed subdirectories (nested modules).
func readModule(dir, modPath string, skip ...string) (module, error) {
	m := module{path: modPath}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			base := d.Name()
			if rel != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || slices.Contains(skip, rel)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		m.files = append(m.files, srcFile{rel, src})
		return nil
	})
	return m, err
}

// readAllowlist parses "key reason" lines; blank and # lines are skipped.
func readAllowlist(name string) (map[string]string, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", name, n, key)
		}
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", name, n, key)
		}
		allow[key] = strings.TrimSpace(reason)
	}
	return allow, sc.Err()
}

// unusedExport is one exported name no non-test file mentions.
type unusedExport struct {
	key string // "internal/pkg.Name" or "internal/pkg.Type.Method"
	pos string // file:line of its declaration
}

type exportReport struct {
	unused []unusedExport
	stale  []string
}

// pkgName is a top-level name qualified by its package's import path.
type pkgName struct{ pkg, name string }

// stdlibMethods are the methods the standard library calls through an
// interface (sort, container/heap, fmt, errors, encoding/json,
// net/http), by name and signature. A method that matches one is
// reached though no file names it.
var stdlibMethods = map[string]string{
	"Len":           "() int",
	"Less":          "(int, int) bool",
	"Swap":          "(int, int)",
	"Push":          "(any)",
	"Pop":           "() any",
	"String":        "() string",
	"Error":         "() string",
	"Unwrap":        "() error",
	"MarshalJSON":   "() ([]byte, error)",
	"UnmarshalJSON": "([]byte) error",
	"ServeHTTP":     "(http.ResponseWriter, *http.Request)",
}

// scanExports reports the exported declarations of root that no non-test
// file of root or others mentions and allow does not name, and the allow
// entries that excuse nothing: the name is mentioned, exempt, or gone.
func scanExports(root module, others []module, allow map[string]string) (exportReport, error) {
	type parsed struct {
		f    *ast.File
		pkg  string // import path
		root bool   // declared in root
	}
	fset := token.NewFileSet()
	var files []parsed
	pkgNames := map[string]string{} // import path -> package name
	for i, m := range append([]module{root}, others...) {
		for _, sf := range m.files {
			if strings.HasSuffix(sf.name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, sf.name, sf.src, parser.SkipObjectResolution)
			if err != nil {
				return exportReport{}, err
			}
			pkg := m.path
			if dir := path.Dir(sf.name); dir != "." {
				pkg += "/" + dir
			}
			pkgNames[pkg] = f.Name.Name
			files = append(files, parsed{f, pkg, i == 0})
		}
	}
	imports := func(f *ast.File) map[string]string {
		local := map[string]string{}
		for _, is := range f.Imports {
			ip := strings.Trim(is.Path.Value, `"`)
			switch {
			case is.Name != nil:
				local[is.Name.Name] = ip
			case pkgNames[ip] != "":
				local[pkgNames[ip]] = ip
			default:
				local[path.Base(ip)] = ip
			}
		}
		return local
	}

	// Exempt: the methods of every type the facade aliases.
	aliased := map[pkgName]bool{}
	for _, p := range files {
		if p.pkg != root.path {
			continue
		}
		local := imports(p.f)
		for _, d := range p.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts := s.(*ast.TypeSpec)
				if sel, ok := ts.Type.(*ast.SelectorExpr); ok && ts.Assign.IsValid() {
					if x, ok := sel.X.(*ast.Ident); ok && local[x.Name] != "" {
						aliased[pkgName{local[x.Name], sel.Sel.Name}] = true
					}
				}
			}
		}
	}

	// What the non-test files mention: qualified and same-package names,
	// and method names (any selector, any interface method).
	used := map[pkgName]bool{}
	methods := map[string]bool{}
	for _, p := range files {
		local := imports(p.f)
		var walk func(ast.Node)
		walk = func(n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl: // its name and receiver are not uses
					walk(n.Type)
					if n.Body != nil {
						walk(n.Body)
					}
					return false
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && local[x.Name] != "" {
						used[pkgName{local[x.Name], n.Sel.Name}] = true
						return false
					}
					methods[n.Sel.Name] = true
					walk(n.X)
					return false
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							methods[id.Name] = true
						}
						walk(m.Type)
					}
					return false
				case *ast.Field: // field and parameter names declare
					walk(n.Type)
					return false
				case *ast.TypeSpec:
					if n.TypeParams != nil {
						walk(n.TypeParams)
					}
					walk(n.Type)
					return false
				case *ast.ValueSpec:
					if n.Type != nil {
						walk(n.Type)
					}
					for _, v := range n.Values {
						walk(v)
					}
					return false
				case *ast.ImportSpec:
					return false
				case *ast.Ident:
					used[pkgName{p.pkg, n.Name}] = true
				}
				return true
			})
		}
		for _, d := range p.f.Decls {
			walk(d)
		}
	}

	// The exported declarations no mention reaches.
	var rep exportReport
	excused := map[string]bool{}
	flag := func(key string, pos token.Pos) {
		if _, ok := allow[key]; ok {
			excused[key] = true
			return
		}
		position := fset.Position(pos)
		rep.unused = append(rep.unused, unusedExport{key, fmt.Sprintf("%s:%d", position.Filename, position.Line)})
	}
	for _, p := range files {
		if !p.root || p.pkg == root.path || p.f.Name.Name == "main" {
			continue
		}
		rel := strings.TrimPrefix(p.pkg, root.path+"/")
		top := func(id *ast.Ident) {
			if id.IsExported() && !used[pkgName{p.pkg, id.Name}] {
				flag(rel+"."+id.Name, id.Pos())
			}
		}
		for _, d := range p.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					top(d.Name)
					continue
				}
				recv := receiverName(d.Recv.List[0].Type)
				if !d.Name.IsExported() || methods[d.Name.Name] || aliased[pkgName{p.pkg, recv}] ||
					stdlibMethods[d.Name.Name] == signature(fset, d.Type) {
					continue
				}
				flag(rel+"."+recv+"."+d.Name.Name, d.Name.Pos())
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						top(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							top(id)
						}
					}
				}
			}
		}
	}
	for key := range allow {
		if !excused[key] {
			rep.stale = append(rep.stale, key)
		}
	}
	sort.Slice(rep.unused, func(i, j int) bool { return rep.unused[i].key < rep.unused[j].key })
	sort.Strings(rep.stale)
	return rep, nil
}

// receiverName is the type name of a method receiver: T, *T, T[P], *T[P].
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// signature renders a func type's parameter and result types, without
// names, as "(int, int) bool" or "() ([]byte, error)".
func signature(fset *token.FileSet, ft *ast.FuncType) string {
	list := func(fl *ast.FieldList) []string {
		var out []string
		if fl == nil {
			return out
		}
		for _, f := range fl.List {
			var b strings.Builder
			printer.Fprint(&b, fset, f.Type)
			t := strings.ReplaceAll(b.String(), "interface{}", "any")
			for n := max(len(f.Names), 1); n > 0; n-- {
				out = append(out, t)
			}
		}
		return out
	}
	sig := "(" + strings.Join(list(ft.Params), ", ") + ")"
	switch res := list(ft.Results); len(res) {
	case 0:
	case 1:
		sig += " " + res[0]
	default:
		sig += " (" + strings.Join(res, ", ") + ")"
	}
	return sig
}

// TestScanExports pins what the scan reports over small in-memory
// modules.
func TestScanExports(t *testing.T) {
	const pkgA = `package a

import "sort"

type T struct{}
type U struct{}
type h []int

func Used()     {}
func TestOnly() {}
func BenchOnly() {}

func (T) Only()  {}
func (U) Other() {}

func (h) Len() int           { return 0 }
func (h) Less(i, j int) bool { return false }
func (h) Swap(i, j int)      {}
func (*h) Push(x any)        {}
func (*h) Pop() any          { return nil }
func (U) String() string     { return "" }
func (U) Less(u U) bool      { return false }

func sortIt() { sort.Sort(h{}) }
`
	root := module{path: "m", files: []srcFile{
		{"oddci.go", []byte("package m\n\nimport \"m/internal/a\"\n\ntype T = a.T\n\nvar _ a.U\n")},
		{"internal/a/a.go", []byte(pkgA)},
		{"internal/a/a_test.go", []byte("package a\n\nfunc init() { TestOnly(); U{}.Other() }\n")},
		{"cmd/x/main.go", []byte("package main\n\nimport \"m/internal/a\"\n\nfunc Exported() {}\n\nfunc main() { a.Used() }\n")},
	}}
	bench := module{path: "m/benchmark", files: []srcFile{
		{"main.go", []byte("package main\n\nimport \"m/internal/a\"\n\nfunc main() { a.BenchOnly() }\n")},
	}}
	cases := []struct {
		name   string
		allow  map[string]string
		unused []string
		stale  []string
	}{
		{
			name:   "test-only func and method flagged; stdlib, alias and main exempt",
			unused: []string{"internal/a.TestOnly", "internal/a.U.Less", "internal/a.U.Other"},
		},
		{
			name:   "allowlisted names excused",
			allow:  map[string]string{"internal/a.TestOnly": "r", "internal/a.U.Other": "r", "internal/a.U.Less": "r"},
			unused: nil,
		},
		{
			name:   "stale when used",
			allow:  map[string]string{"internal/a.Used": "r", "internal/a.h.Less": "r", "internal/a.T.Only": "r"},
			unused: []string{"internal/a.TestOnly", "internal/a.U.Less", "internal/a.U.Other"},
			stale:  []string{"internal/a.T.Only", "internal/a.Used", "internal/a.h.Less"},
		},
		{
			name:   "stale when gone",
			allow:  map[string]string{"internal/a.Gone": "r", "internal/a.TestOnly": "r", "internal/a.U.Less": "r", "internal/a.U.Other": "r"},
			unused: nil,
			stale:  []string{"internal/a.Gone"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := scanExports(root, []module{bench}, tc.allow)
			if err != nil {
				t.Fatal(err)
			}
			var unused []string
			for _, u := range rep.unused {
				unused = append(unused, u.key)
			}
			if !slices.Equal(unused, tc.unused) {
				t.Errorf("unused = %v, want %v", unused, tc.unused)
			}
			if !slices.Equal(rep.stale, tc.stale) {
				t.Errorf("stale = %v, want %v", rep.stale, tc.stale)
			}
		})
	}
}
