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
// A knob, an exported field of an exported struct whose name ends in
// Config, Options or Spec, must also be turned: non-test code outside
// its package must give it two or more distinct values, or one value
// that is not a constant. A composite literal that omits the field
// gives it its zero value.
//
// On a failure, delete the declaration, or fold a knob into its default
// as a constant; unexport it if only its own package's tests use it;
// reach it from a surface (a facade option, a flag, an oddci-sim
// experiment); or allowlist it under a tagged reason.
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
		t.Errorf("%s: %s is %s outside tests (delete or fold it, unexport it, reach it from a surface, or allowlist it with a tagged reason in %s)",
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
	// vals holds, per struct field, the values that code outside the
	// field's package gives it.
	vals map[*types.Var]*fieldVals
	// conv lists the concrete types converted to an interface, and
	// widen the interface-to-interface flows (assignments, assertions,
	// type switches), both keyed by the interface's type string.
	conv  []conversion
	widen map[string][]types.Type
}

type conversion struct{ from, to types.Type }

// fieldVals is what outside code writes to one field: the distinct
// constants, by exact value, and whether any write is not a constant.
type fieldVals struct {
	consts map[string]bool
	varied bool
}

// set records one outside write of v: the value expression, or nil for
// a write whose value is not one expression (x.F += 1, &x.F, x.F[i] = y).
func (r *reach) set(v *types.Var, val ast.Expr, info *types.Info) {
	key := "" // not a constant
	if val != nil {
		switch tv := info.Types[val]; {
		case tv.Value != nil:
			key = tv.Value.ExactString()
		case tv.IsNil():
			key = zeroKey(v.Type())
		}
	}
	r.setKey(v, key)
}

// setKey records one outside write of v: the exact constant, or "" for
// a value that is not a constant.
func (r *reach) setKey(v *types.Var, c string) {
	fv := r.vals[v]
	if fv == nil {
		fv = &fieldVals{consts: map[string]bool{}}
		r.vals[v] = fv
	}
	if c == "" {
		fv.varied = true
	} else {
		fv.consts[c] = true
	}
}

// zeroKey is what a composite literal that omits a field of type t
// writes to it: the exact zero constant of a basic type, and for any
// other type one key that nil shares.
func zeroKey(t types.Type) string {
	if b, ok := t.Underlying().(*types.Basic); ok {
		switch {
		case b.Info()&types.IsBoolean != 0:
			return "false"
		case b.Info()&types.IsString != 0:
			return `""`
		case b.Info()&types.IsNumeric != 0:
			return "0"
		}
	}
	return "the zero value"
}

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
		r.file(f, p.info, p.types)
	}
}

// file records the field reads and writes, the values written to the
// fields of other packages and the interface conversions in one file of
// package pkg.
func (r *reach) file(f *ast.File, info *types.Info, pkg *types.Package) {
	field := func(id *ast.Ident) *types.Var {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	// writes maps each written expression to the value a plain
	// assignment gives it, or to nil.
	writes := map[ast.Expr]ast.Expr{}
	write := func(e, val ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e, val = x.X, nil
			case *ast.StarExpr:
				e, val = x.X, nil
			default:
				writes[e] = val
				return
			}
		}
	}
	outside := func(v *types.Var) bool { return v.Pkg() != pkg }
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				var val ast.Expr
				if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
					val = n.Rhs[i]
				}
				write(l, val)
			}
			if n.Tok == token.ASSIGN {
				r.flowTuple(info, n.Rhs, func(i int) types.Type { return info.TypeOf(n.Lhs[i]) }, len(n.Lhs))
			}
		case *ast.IncDecStmt:
			write(n.X, nil)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(n.X, nil)
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
				v := sel.Obj().(*types.Var).Origin()
				if val, ok := writes[n]; ok {
					r.written[v] = true
					if outside(v) {
						r.set(v, val, info)
					}
				} else {
					r.read[v] = true
				}
			}
		case *ast.CompositeLit:
			switch u := info.TypeOf(n).Underlying().(type) {
			case *types.Struct:
				named := map[*types.Var]bool{}
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if v := field(kv.Key.(*ast.Ident)); v != nil {
							r.written[v] = true
							named[v] = true
							r.flow(info.TypeOf(kv.Value), v.Type())
							if outside(v) {
								r.set(v, kv.Value, info)
							}
						}
					} else if i < u.NumFields() {
						v := u.Field(i).Origin()
						r.written[v] = true
						named[v] = true
						r.flow(info.TypeOf(e), u.Field(i).Type())
						if outside(v) {
							r.set(v, e, info)
						}
					}
				}
				for i := 0; i < u.NumFields(); i++ {
					if v := u.Field(i).Origin(); !named[v] && outside(v) {
						r.setKey(v, zeroKey(v.Type()))
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
		vals: map[*types.Var]*fieldVals{}, widen: map[string][]types.Type{},
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
				knobs := strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Spec")
				for i := 0; i < st.NumFields(); i++ {
					v := st.Field(i)
					if !v.Exported() || v.Embedded() {
						continue
					}
					read := r.read[v] || reflect.StructTag(st.Tag(i)).Get("json") != ""
					switch fv := r.vals[v]; {
					case !r.written[v] && !read:
						flag(key+"."+v.Name(), "neither written nor read", v.Pos())
					case !r.written[v]:
						flag(key+"."+v.Name(), "read but never written", v.Pos())
					case !read:
						flag(key+"."+v.Name(), "written but never read", v.Pos())
					case knobs && fv == nil:
						flag(key+"."+v.Name(), "a knob other packages never set", v.Pos())
					case knobs && !fv.varied && len(fv.consts) < 2:
						for c := range fv.consts {
							flag(key+"."+v.Name(), "a knob other packages set only to "+c, v.Pos())
						}
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
type Params struct {
	Rate int
	Knob int
	Dead int
}
type Result struct {
	N   int ` + "`json:\"n\"`" + `
	Raw int
}

func Run(c Params) Result { return Result{N: c.Rate + c.Knob, Raw: 1} }

// The knob rule, as main sets these fields: it omits Unnamed (so gives
// it only 0), sets One to 1 twice, omits Two once and sets it to 5 once,
// and sets Var to one non-constant. No outside code builds a RunSpec.
type KnobConfig struct {
	Unnamed int
	One     int
	Two     int
	Var     int
}
type RunSpec struct{ Depth int }

func NewSpec() RunSpec { return RunSpec{Depth: 2} }

func Tune(c KnobConfig, a AliasConfig) int {
	if c.Unnamed == 0 {
		c.Unnamed = 3
	}
	return c.Unnamed + c.One + c.Two + c.Var + a.Fixed
}

// oddci.go aliases Alias and AliasConfig, so their methods and fields
// are public surface.
type Alias struct{}

func (Alias) Method() {}

type AliasConfig struct{ Fixed int }

func NewAlias() AliasConfig { return AliasConfig{Fixed: 1} }

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
	fmt.Println(Run(Params{Rate: 1}))
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
	_ = Params{Knob: 1}
}
`
	const mainX = `package main

import (
	"os"

	"m/internal/a"
)

func Exported() {}

func main() {
	a.Entry()
	n := len(os.Args)
	a.Tune(a.KnobConfig{One: 1, Var: n}, a.NewAlias())
	a.Tune(a.KnobConfig{One: 1, Two: 5, Var: n}, a.AliasConfig{})
	println(a.NewSpec().Depth)
}
`
	root := module{path: "m", files: []srcFile{
		{"oddci.go", []byte("package m\n\nimport \"m/internal/a\"\n\ntype Alias = a.Alias\ntype AliasConfig = a.AliasConfig\n")},
		{"internal/a/a.go", []byte(pkgA)},
		{"internal/a/a_test.go", []byte(testA)},
		{"cmd/x/main.go", []byte(mainX)},
	}}
	bench := module{path: "m/benchmark", files: []srcFile{
		{"main.go", []byte("package main\n\nimport \"m/internal/a\"\n\nfunc main() { a.BenchOnly() }\n")},
	}}
	all := []string{
		"internal/a.KnobConfig.One: a knob other packages set only to 1",
		"internal/a.KnobConfig.Unnamed: a knob other packages set only to 0",
		"internal/a.Params.Dead: neither written nor read",
		"internal/a.Params.Knob: read but never written",
		"internal/a.Result.Raw: written but never read",
		"internal/a.RunSpec.Depth: a knob other packages never set",
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
				"internal/a.KnobConfig.One": "roadmap 1: x", "internal/a.KnobConfig.Unnamed": "roadmap 1: x",
				"internal/a.RunSpec.Depth": "roadmap 1: x",
				"internal/a.Params.Dead":   "roadmap 3: x", "internal/a.Params.Knob": "seam: TestOracle sets it",
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
			name:   "stale when a knob gets a second value",
			allow:  map[string]string{"internal/a.KnobConfig.Two": "roadmap 1: x"},
			unused: all,
			stale:  []string{"internal/a.KnobConfig.Two: " + allowStale},
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
