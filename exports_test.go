package oddci

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportsAllowlist names the declarations that stay although no non-test
// code reaches them, one per line: the key the scan prints, then a
// tagged reason (see allowReason).
const exportsAllowlist = "testdata/exports_allowlist.txt"

// TestExportsReachedOutsideTests is the API ratchet. It type-checks the
// non-test files of the root and benchmark modules and fails on any
// declaration of the root module that no non-test code reaches: a
// top-level func, type, var or const, a method (of a concrete or an
// interface type), an unexported func or method, or a field of an
// exported struct that non-test code does not both write and read.
// Package oddci itself, package main and the methods and fields of the
// types oddci.go aliases are public surface and exempt.
//
// On a failure, delete the declaration, unexport it if only its own
// package's tests use it, or allowlist it under a tagged reason.
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
		t.Errorf("%s: %s is %s outside tests (delete it, unexport it, or allowlist it with a tagged reason in %s)",
			u.pos, u.key, u.why, exportsAllowlist)
	}
	for _, s := range rep.stale {
		t.Errorf("%s: %s: %s", exportsAllowlist, s.key, s.why)
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

// allowReason is the grammar of an allowlist reason. "oracle:" names the
// test that compares against the declaration, "seam:" the test that
// injects through it, and "roadmap N:" the open ROADMAP item that will
// reach it or delete it.
var allowReason = regexp.MustCompile(`^(?:(?:oracle|seam): .*?\b(Test\w+)|roadmap \d+: \S)`)

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
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", name, n, key)
		}
		allow[key] = strings.TrimSpace(reason)
	}
	return allow, sc.Err()
}

// unusedDecl is one declaration no non-test code reaches.
type unusedDecl struct {
	key string // "internal/pkg.Name" or "internal/pkg.Type.Member"
	why string // "not reached", "written but never read", ...
	pos string // file:line of its declaration
}

// badLine is one allowlist line in error.
type badLine struct {
	key string
	why string // one of the allow* messages
}

const (
	allowUntagged = "the reason has no tag (oracle: TestX, seam: TestX or roadmap N:)"
	allowNoTest   = "the reason names a test no test file declares"
	allowStale    = "stale: the declaration is reached, exempt or gone; remove the line"
)

type exportReport struct {
	unused []unusedDecl
	stale  []badLine
}

// stdImporter type-checks imports outside the scanned modules: the
// standard library, from the toolchain's export data. It is shared, so
// every scan sees one types.Package per import path.
var stdImporter = sync.OnceValue(func() types.Importer {
	return importer.ForCompiler(token.NewFileSet(), "gc", nil)
})

// checkedPkg is one type-checked package of a scanned module.
type checkedPkg struct {
	path  string
	root  bool // declared in the root module
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// typeCheck parses the non-test files of mods and type-checks them
// package by package, imports first.
func typeCheck(fset *token.FileSet, mods []module) ([]*checkedPkg, error) {
	byPath := map[string]*checkedPkg{}
	var paths []string
	for i, m := range mods {
		for _, sf := range m.files {
			if strings.HasSuffix(sf.name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, sf.name, sf.src, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p := m.path
			if dir := path.Dir(sf.name); dir != "." {
				p += "/" + dir
			}
			if byPath[p] == nil {
				byPath[p] = &checkedPkg{path: p, root: i == 0}
				paths = append(paths, p)
			}
			byPath[p].files = append(byPath[p].files, f)
		}
	}
	conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		if cp := byPath[p]; cp != nil {
			if cp.types == nil {
				return nil, fmt.Errorf("import cycle through %s", p)
			}
			return cp.types, nil
		}
		return stdImporter().Import(p)
	})}
	var order []*checkedPkg
	state := map[string]int{} // 1 visiting, 2 done
	var visit func(p string) error
	visit = func(p string) error {
		cp := byPath[p]
		if cp == nil || state[p] == 2 {
			return nil
		}
		if state[p] == 1 {
			return fmt.Errorf("import cycle through %s", p)
		}
		state[p] = 1
		for _, f := range cp.files {
			for _, is := range f.Imports {
				if err := visit(strings.Trim(is.Path.Value, `"`)); err != nil {
					return err
				}
			}
		}
		cp.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		var err error
		if cp.types, err = conf.Check(p, fset, cp.files, cp.info); err != nil {
			return err
		}
		state[p] = 2
		order = append(order, cp)
		return nil
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// reach is what the non-test code of the scanned modules touches.
type reach struct {
	used          map[types.Object]bool // named by Info.Uses, by Origin
	read, written map[*types.Var]bool   // struct fields
	// conv lists the concrete types converted to an interface, and
	// widen the interface-to-interface flows (assignments, assertions,
	// type switches), both keyed by the interface's type string.
	conv  []conversion
	widen map[string][]types.Type
}

type conversion struct{ from, to types.Type }

// origin maps an instantiated generic func, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// flow records that a value of type from is used where to is expected.
func (r *reach) flow(from, to types.Type) {
	if from == nil || to == nil {
		return
	}
	if _, ok := to.Underlying().(*types.Interface); !ok {
		return
	}
	if _, ok := from.Underlying().(*types.Interface); ok {
		k := typeKey(from)
		r.widen[k] = append(r.widen[k], to)
		return
	}
	r.conv = append(r.conv, conversion{from, to})
}

func typeKey(t types.Type) string { return types.TypeString(types.Unalias(t), nil) }

// flowTuple matches the values exprs to the types want, spreading a
// single multi-value expression.
func (r *reach) flowTuple(info *types.Info, exprs []ast.Expr, want func(i int) types.Type, n int) {
	if len(exprs) == 1 && n > 1 {
		if tup, ok := info.TypeOf(exprs[0]).(*types.Tuple); ok {
			for i := 0; i < tup.Len() && i < n; i++ {
				r.flow(tup.At(i).Type(), want(i))
			}
		}
		return
	}
	for i, e := range exprs {
		if i < n {
			r.flow(info.TypeOf(e), want(i))
		}
	}
}

// pkg records the uses, field reads and writes and interface
// conversions in one package's non-test files.
func (r *reach) pkg(p *checkedPkg) {
	self := map[*ast.Ident]bool{} // receiver types: not uses
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						self[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range p.info.Uses {
		if v, ok := obj.(*types.Var); (!ok || !v.IsField()) && !self[id] {
			r.used[origin(obj)] = true
		}
	}
	for _, f := range p.files {
		r.file(f, p.info)
	}
}

// file records the field reads and writes and the interface conversions
// in one file.
func (r *reach) file(f *ast.File, info *types.Info) {
	field := func(id *ast.Ident) *types.Var {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	writes := map[ast.Expr]bool{}
	write := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				writes[e] = true
				return
			}
		}
	}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				write(l)
			}
			if n.Tok == token.ASSIGN {
				r.flowTuple(info, n.Rhs, func(i int) types.Type { return info.TypeOf(n.Lhs[i]) }, len(n.Lhs))
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(n.X)
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
				v := sel.Obj().(*types.Var).Origin()
				if writes[n] {
					r.written[v] = true
				} else {
					r.read[v] = true
				}
			}
		case *ast.CompositeLit:
			switch u := info.TypeOf(n).Underlying().(type) {
			case *types.Struct:
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if v := field(kv.Key.(*ast.Ident)); v != nil {
							r.written[v] = true
							r.flow(info.TypeOf(kv.Value), v.Type())
						}
					} else if i < u.NumFields() {
						r.written[u.Field(i).Origin()] = true
						r.flow(info.TypeOf(e), u.Field(i).Type())
					}
				}
			case *types.Map:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						r.flow(info.TypeOf(kv.Key), u.Key())
						r.flow(info.TypeOf(kv.Value), u.Elem())
					}
				}
			case interface{ Elem() types.Type }: // slice, array
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						e = kv.Value
					}
					r.flow(info.TypeOf(e), u.Elem())
				}
			}
		case *ast.CallExpr:
			tv := info.Types[n.Fun]
			if tv.IsType() {
				if len(n.Args) == 1 {
					r.flow(info.TypeOf(n.Args[0]), tv.Type)
				}
				break
			}
			sig, ok := tv.Type.(*types.Signature)
			if !ok {
				break
			}
			params := sig.Params()
			last := params.Len() - 1
			r.flowTuple(info, n.Args, func(i int) types.Type {
				if sig.Variadic() && i >= last && !n.Ellipsis.IsValid() {
					return params.At(last).Type().(*types.Slice).Elem()
				}
				if i <= last {
					return params.At(i).Type()
				}
				return nil
			}, max(params.Len(), len(n.Args)))
		case *ast.ReturnStmt:
			for i := len(stack) - 2; i >= 0; i-- {
				var sig *types.Signature
				switch fn := stack[i].(type) {
				case *ast.FuncDecl:
					sig = info.Defs[fn.Name].Type().(*types.Signature)
				case *ast.FuncLit:
					sig = info.TypeOf(fn).(*types.Signature)
				default:
					continue
				}
				res := sig.Results()
				r.flowTuple(info, n.Results, func(i int) types.Type { return res.At(i).Type() }, res.Len())
				break
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				to := info.TypeOf(n.Type)
				r.flowTuple(info, n.Values, func(int) types.Type { return to }, len(n.Names))
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				r.flow(info.TypeOf(n.Value), ch.Elem())
			}
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				r.flow(info.TypeOf(n.X), info.TypeOf(n.Type))
			}
		case *ast.TypeSwitchStmt:
			var x ast.Expr
			switch a := n.Assign.(type) {
			case *ast.AssignStmt:
				x = a.Rhs[0].(*ast.TypeAssertExpr).X
			case *ast.ExprStmt:
				x = a.X.(*ast.TypeAssertExpr).X
			}
			for _, c := range n.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					r.flow(info.TypeOf(x), info.TypeOf(e))
				}
			}
		}
		return true
	})
}

// dispatch marks the concrete methods that implement a reached method
// of an interface their type is converted to, directly or through
// interface-to-interface flows.
func (r *reach) dispatch() {
	closure := map[string][]types.Type{}
	ifaces := func(to types.Type) []types.Type {
		k := typeKey(to)
		if c, ok := closure[k]; ok {
			return c
		}
		seen := map[string]bool{k: true}
		out := []types.Type{to}
		for i := 0; i < len(out); i++ {
			for _, w := range r.widen[typeKey(out[i])] {
				if wk := typeKey(w); !seen[wk] {
					seen[wk] = true
					out = append(out, w)
				}
			}
		}
		closure[k] = out
		return out
	}
	done := map[[2]string]bool{}
	for _, c := range r.conv {
		key := [2]string{typeKey(c.from), typeKey(c.to)}
		if done[key] {
			continue
		}
		done[key] = true
		for _, it := range ifaces(c.to) {
			iu := it.Underlying().(*types.Interface)
			for i := 0; i < iu.NumMethods(); i++ {
				m := iu.Method(i)
				if !r.used[m] {
					continue
				}
				if obj, _, _ := types.LookupFieldOrMethod(c.from, true, m.Pkg(), m.Name()); obj != nil {
					r.used[origin(obj)] = true
				}
			}
		}
	}
}

// stdlibInterfaces are the standard-library interfaces whose methods
// the standard library calls on values it holds as any or error: a
// method that implements one is reached though no scanned file calls it.
var stdlibInterfaces = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"net/http", "Handler"},
}

// scanExports reports the declarations of root that no non-test code of
// root or others reaches and allow does not name, and the allow lines
// that are untagged or excuse nothing: the declaration is reached,
// exempt or gone.
func scanExports(root module, others []module, allow map[string]string) (exportReport, error) {
	fset := token.NewFileSet()
	pkgs, err := typeCheck(fset, append([]module{root}, others...))
	if err != nil {
		return exportReport{}, err
	}
	r := &reach{
		used: map[types.Object]bool{}, read: map[*types.Var]bool{}, written: map[*types.Var]bool{},
		widen: map[string][]types.Type{},
	}
	for _, p := range pkgs {
		r.pkg(p)
	}
	r.dispatch()

	var std []*types.Interface
	for _, s := range stdlibInterfaces {
		scope := types.Universe
		if s.pkg != "" {
			p, err := stdImporter().Import(s.pkg)
			if err != nil {
				return exportReport{}, err
			}
			scope = p.Scope()
		}
		std = append(std, scope.Lookup(s.name).Type().Underlying().(*types.Interface))
	}
	implementsStd := func(named types.Type, m *types.Func) bool {
		for _, s := range std {
			if obj, _, _ := types.LookupFieldOrMethod(s, false, nil, m.Name()); obj != nil &&
				(types.Implements(named, s) || types.Implements(types.NewPointer(named), s)) {
				return true
			}
		}
		return false
	}

	// Exempt: the methods and fields of every type the facade aliases.
	aliased := map[*types.TypeName]bool{}
	for _, p := range pkgs {
		if p.path != root.path {
			continue
		}
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					aliased[n.Obj()] = true
				}
			}
		}
	}

	var rep exportReport
	excused := map[string]bool{}
	flag := func(key, why string, pos token.Pos) {
		if _, ok := allow[key]; ok {
			excused[key] = true
			return
		}
		position := fset.Position(pos)
		rep.unused = append(rep.unused, unusedDecl{key, why, fmt.Sprintf("%s:%d", position.Filename, position.Line)})
	}
	check := func(key string, obj types.Object) {
		if !r.used[obj] {
			flag(key, "not reached", obj.Pos())
		}
	}
	for _, p := range pkgs {
		if !p.root || p.path == root.path || p.types.Name() == "main" {
			continue
		}
		rel := strings.TrimPrefix(p.path, root.path+"/")
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			key := rel + "." + name
			switch obj := obj.(type) {
			case *types.Func:
				check(key, obj)
			case *types.Var, *types.Const:
				if obj.Exported() {
					check(key, obj)
				}
			case *types.TypeName:
				if obj.Exported() {
					check(key, obj)
				}
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() || aliased[obj] {
					continue
				}
				if iface, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumExplicitMethods(); i++ {
						check(key+"."+iface.ExplicitMethod(i).Name(), iface.ExplicitMethod(i))
					}
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); !implementsStd(named, m) {
						check(key+"."+m.Name(), m)
					}
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok || !obj.Exported() {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					v := st.Field(i)
					if !v.Exported() || v.Embedded() {
						continue
					}
					read := r.read[v] || reflect.StructTag(st.Tag(i)).Get("json") != ""
					switch {
					case !r.written[v] && !read:
						flag(key+"."+v.Name(), "neither written nor read", v.Pos())
					case !r.written[v]:
						flag(key+"."+v.Name(), "read but never written", v.Pos())
					case !read:
						flag(key+"."+v.Name(), "written but never read", v.Pos())
					}
				}
			}
		}
	}
	tests := testNames(root)
	for key, reason := range allow {
		switch m := allowReason.FindStringSubmatch(reason); {
		case m == nil:
			rep.stale = append(rep.stale, badLine{key, allowUntagged})
		case m[1] != "" && !tests[m[1]]:
			rep.stale = append(rep.stale, badLine{key, allowNoTest})
		case !excused[key]:
			rep.stale = append(rep.stale, badLine{key, allowStale})
		}
	}
	sort.Slice(rep.unused, func(i, j int) bool { return rep.unused[i].key < rep.unused[j].key })
	sort.Slice(rep.stale, func(i, j int) bool { return rep.stale[i].key < rep.stale[j].key })
	return rep, nil
}

// testNames is the set of Test functions m's test files declare.
func testNames(m module) map[string]bool {
	names := map[string]bool{}
	for _, sf := range m.files {
		if !strings.HasSuffix(sf.name, "_test.go") {
			continue
		}
		for _, line := range bytes.Split(sf.src, []byte("\n")) {
			if rest, ok := bytes.CutPrefix(line, []byte("func Test")); ok {
				if name, _, ok := bytes.Cut(rest, []byte("(")); ok {
					names["Test"+string(name)] = true
				}
			}
		}
	}
	return names
}

// TestScanExports pins what the scan reports over small in-memory
// modules, type-checked like the real ones: one declaration per rule.
func TestScanExports(t *testing.T) {
	const pkgA = `package a

import (
	"fmt"
	"sort"
)

// Two types share a method name; only Used's is called.
type Used struct{}
type Unused struct{}

func (Used) Close()   {}
func (Unused) Close() {}

// impl.Run is reached only through Runner; only a test calls Probe.
type Runner interface {
	Run()
	Probe()
}
type impl struct{}

func (impl) Run()   {}
func (impl) Probe() {}

func Start(r Runner) { r.Run() }

// Rate is written and read; only a test writes Knob; nothing touches
// Dead. N is read by encoding/json; nothing reads Raw.
type Config struct {
	Rate int
	Knob int
	Dead int
}
type Result struct {
	N   int ` + "`json:\"n\"`" + `
	Raw int
}

func Run(c Config) Result { return Result{N: c.Rate + c.Knob, Raw: 1} }

// oddci.go aliases Alias, so its method is public surface.
type Alias struct{}

func (Alias) Method() {}

// Stdlib interfaces: sort and fmt call these.
type h []int

func (h) Len() int           { return 0 }
func (h) Less(i, j int) bool { return false }
func (h) Swap(i, j int)      {}
func (Used) String() string  { return "" }

func helper() {}
func used()   {}

func TestOnly()  {}
func BenchOnly() {}

func Entry() {
	used()
	Used{}.Close()
	Start(impl{})
	sort.Sort(h{})
	fmt.Println(Run(Config{Rate: 1}))
}
`
	const testA = `package a

import "testing"

func TestOracle(t *testing.T) {
	TestOnly()
	helper()
	Unused{}.Close()
	var r Runner = impl{}
	r.Probe()
	_ = Config{Knob: 1}
}
`
	root := module{path: "m", files: []srcFile{
		{"oddci.go", []byte("package m\n\nimport \"m/internal/a\"\n\ntype Alias = a.Alias\n")},
		{"internal/a/a.go", []byte(pkgA)},
		{"internal/a/a_test.go", []byte(testA)},
		{"cmd/x/main.go", []byte("package main\n\nimport \"m/internal/a\"\n\nfunc Exported() {}\n\nfunc main() { a.Entry() }\n")},
	}}
	bench := module{path: "m/benchmark", files: []srcFile{
		{"main.go", []byte("package main\n\nimport \"m/internal/a\"\n\nfunc main() { a.BenchOnly() }\n")},
	}}
	all := []string{
		"internal/a.Config.Dead: neither written nor read",
		"internal/a.Config.Knob: read but never written",
		"internal/a.Result.Raw: written but never read",
		"internal/a.Runner.Probe: not reached",
		"internal/a.TestOnly: not reached",
		"internal/a.Unused: not reached",
		"internal/a.Unused.Close: not reached",
		"internal/a.helper: not reached",
		"internal/a.impl.Probe: not reached",
	}
	cases := []struct {
		name   string
		allow  map[string]string
		unused []string
		stale  []string
	}{
		{name: "test-only func and method flagged; stdlib, alias and main exempt", unused: all},
		{
			name: "allowlisted names excused",
			allow: map[string]string{
				"internal/a.Config.Dead": "roadmap 3: x", "internal/a.Config.Knob": "seam: TestOracle sets it",
				"internal/a.Result.Raw": "roadmap 3: x", "internal/a.Runner.Probe": "oracle: TestOracle calls it",
				"internal/a.TestOnly": "roadmap 3: x", "internal/a.Unused": "roadmap 3: x",
				"internal/a.Unused.Close": "roadmap 3: x", "internal/a.helper": "roadmap 3: x",
				"internal/a.impl.Probe": "roadmap 3: x",
			},
		},
		{
			name:   "stale when used",
			allow:  map[string]string{"internal/a.Entry": "roadmap 1: x", "internal/a.h.Len": "roadmap 1: x"},
			unused: all,
			stale:  []string{"internal/a.Entry: " + allowStale, "internal/a.h.Len: " + allowStale},
		},
		{
			name:   "stale when gone",
			allow:  map[string]string{"internal/a.Gone": "roadmap 1: x"},
			unused: all,
			stale:  []string{"internal/a.Gone: " + allowStale},
		},
		{
			name: "untagged reason or unknown test is an error",
			allow: map[string]string{
				"internal/a.helper":   "only a test calls it",
				"internal/a.TestOnly": "oracle: TestMissing compares against it",
			},
			unused: slices.DeleteFunc(slices.Clone(all), func(s string) bool {
				return strings.HasPrefix(s, "internal/a.helper:") || strings.HasPrefix(s, "internal/a.TestOnly:")
			}),
			stale: []string{
				"internal/a.TestOnly: " + allowNoTest,
				"internal/a.helper: " + allowUntagged,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := scanExports(root, []module{bench}, tc.allow)
			if err != nil {
				t.Fatal(err)
			}
			var unused, stale []string
			for _, u := range rep.unused {
				unused = append(unused, u.key+": "+u.why)
			}
			for _, s := range rep.stale {
				stale = append(stale, s.key+": "+s.why)
			}
			if !slices.Equal(unused, tc.unused) {
				t.Errorf("unused:\n got %q\nwant %q", unused, tc.unused)
			}
			if !slices.Equal(stale, tc.stale) {
				t.Errorf("stale:\n got %q\nwant %q", stale, tc.stale)
			}
		})
	}
}
