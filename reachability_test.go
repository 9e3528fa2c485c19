package rajaperf

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// exceptions lists the declarations that no non-test code reaches, and the
// fields that it never reads or never sets, that stay, keyed as in the
// test's failure lines (package.Name, package.Type.Method or
// package.Type.Field), each with the reason it stays.
var exceptions = map[string]string{
	"caliper.FileError.Unwrap":         "reached through errors.Is/As on a FileError",
	"resilience.TransientError.Unwrap": "reached through errors.Is/As on a TransientError",
	"kernels.ByGroup":                  "each kernel group's tests (basic, lcals, polybench, stream, apps, algorithms, comm) enumerate their group through it",
	"resilience.Injector.Fired":        "campaign and suite fault tests observe which fault points fired through it",

	"gpusim.Result.Bottleneck":         "gpusim's tests check through it which resource limits each probe kernel",
	"gpusim.Counters.L1LocalLoad":      "part of Table IV's NCU metric set; the model has no local-memory traffic, so profiles record zero",
	"gpusim.Counters.L1LocalStore":     "part of Table IV's NCU metric set; the model has no local-memory traffic, so profiles record zero",
	"gpusim.Counters.L2Red":            "part of Table IV's NCU metric set; the model has no reduction traffic, so profiles record zero",
	"campaign.Options.Metrics":         "tests inject an isolated registry through it; registries stay injectable (ROADMAP item 9)",
	"fabric.Config.Metrics":            "tests inject an isolated registry through it; registries stay injectable (ROADMAP item 9)",
	"telemetry.ServerOptions.Registry": "tests inject an isolated registry through it; registries stay injectable (ROADMAP item 9)",
	"fabric.Config.Assign":             "tests force a skewed plan through it, so that the steal path runs",
}

// exemptPackages are test-support packages: their declarations exist for
// other packages' tests, so they are not checked, and their uses do not
// count either: what only a test-support package reaches only tests reach.
var exemptPackages = map[string]bool{
	"internal/kernels/kerneltest": true,
	"internal/frame/querytest":    true,
}

// modulePath is the root module's path. The nested perfbench module's path,
// rajaperf/perfbench, is its directory under it, so one mapping from
// directory to import path serves both modules.
const modulePath = "rajaperf"

// sourcePackage is the non-test files of one directory.
type sourcePackage struct {
	dir   string // slash-separated, relative to the module root
	files []*ast.File
}

// TestExportsReachable fails on any package-level func, var, const or type,
// any method of a package-level named type, and any method of a
// package-level named interface, that no non-test code of the module or of
// the nested perfbench module uses, exported or not. Uses are type-checked
// objects, so a live name elsewhere cannot hide a dead one. Uses inside the
// exempt packages, and uses of a function or method inside its own body,
// do not count (see uncounted). Calls through an interface name no concrete
// method, so a concrete method also counts as reached when an interface of
// the module or of an imported standard-library package has one of its name
// and signature, or a generic interface of the module has one of its name
// (see interfaceMethods); an interface's own method counts only when a use
// names it. It also fails on a field of a package-level named struct type
// of the root module that no such code reads, or that it reads but never
// sets (see fieldUses and fields).
// Standard-library types come from compiler export data that one
// `go list -export` run locates; a failure there or a type error fails the
// test rather than skipping it. perfbench counts as a caller: it
// builds against this module's packages but is its own module, so the root
// `go build ./...` never compiles it.
func TestExportsReachable(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parsePackages(fset)
	if err != nil {
		t.Fatal(err)
	}
	order, stdImports := importOrder(pkgs)
	exports, err := listExports(stdImports)
	if err != nil {
		t.Fatal(err)
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})

	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	checked := map[string]*types.Package{}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if p, ok := checked[path]; ok {
				return p, nil
			}
			return std.Import(path)
		}),
		Error: func(err error) { t.Error(err) },
	}
	for _, path := range order {
		p, _ := conf.Check(path, fset, pkgs[path].files, info)
		checked[path] = p
	}
	if t.Failed() {
		t.FailNow()
	}

	reached := map[types.Object]bool{}
	skip := uncounted(pkgs, info)
	for id, obj := range info.Uses {
		if !skip[id] {
			reached[origin(obj)] = true
		}
	}
	viaInterface := interfaceMethods(info, std, stdImports)

	declared := map[string]bool{} // by key: whether it is reached
	var dead []string
	for _, path := range order {
		if exemptPackages[pkgs[path].dir] {
			continue
		}
		for _, d := range declarations(checked[path]) {
			live := reached[d.obj] || viaInterface(d.obj)
			declared[d.key] = live
			if _, ok := exceptions[d.key]; !ok && !live {
				pos := fset.Position(d.obj.Pos())
				dead = append(dead, fmt.Sprintf("%s:%d %s", pos.Filename, pos.Line, d.key))
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: declared but never reached outside tests; delete it or list it in exceptions", d)
	}

	read, written := fieldUses(pkgs, info)
	hashed := mapKeyFields(info)
	var unread, unset []string
	for _, path := range order {
		dir := pkgs[path].dir
		if exemptPackages[dir] || dir == "perfbench" || strings.HasPrefix(dir, "perfbench/") {
			continue
		}
		for _, d := range fields(checked[path], hashed) {
			pos := fset.Position(d.obj.Pos())
			at := fmt.Sprintf("%s:%d %s", pos.Filename, pos.Line, d.key)
			declared[d.key] = read[d.obj] && written[d.obj]
			if _, ok := exceptions[d.key]; ok {
				continue
			}
			switch {
			case !read[d.obj]:
				unread = append(unread, at)
			case !written[d.obj]:
				unset = append(unset, at)
			}
		}
	}
	sort.Strings(unread)
	sort.Strings(unset)
	for _, d := range unread {
		t.Errorf("%s: field written but never read outside tests; delete it or list it in exceptions", d)
	}
	for _, d := range unset {
		t.Errorf("%s: field read but never set outside tests; make it a constant or list it in exceptions", d)
	}
	for key := range exceptions {
		live, ok := declared[key]
		switch {
		case !ok:
			t.Errorf("stale exception %s: no longer declared", key)
		case live:
			t.Errorf("stale exception %s: now reached", key)
		}
	}
}

// parsePackages parses every non-test .go file under the module root and
// perfbench/ that the build constraints of this platform accept, skipping
// dot-directories and testdata/, keyed by import path.
func parsePackages(fset *token.FileSet) (map[string]*sourcePackage, error) {
	pkgs := map[string]*sourcePackage{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir = filepath.ToSlash(dir)
		imp := modulePath + "/" + dir
		if dir == "." {
			imp = modulePath
		}
		if pkgs[imp] == nil {
			pkgs[imp] = &sourcePackage{dir: dir}
		}
		pkgs[imp].files = append(pkgs[imp].files, f)
		return nil
	})
	return pkgs, err
}

// importOrder returns the module's packages with every package after those it
// imports, and the sorted standard-library packages they import.
func importOrder(pkgs map[string]*sourcePackage) (order, std []string) {
	stdSet := map[string]bool{}
	done := map[string]bool{}
	var visit func(path string)
	visit = func(path string) {
		if done[path] {
			return
		}
		done[path] = true
		for _, f := range pkgs[path].files {
			for _, spec := range f.Imports {
				imp := strings.Trim(spec.Path.Value, `"`)
				if pkgs[imp] != nil {
					visit(imp)
				} else {
					stdSet[imp] = true
				}
			}
		}
		order = append(order, path)
	}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		visit(path)
	}
	for imp := range stdSet {
		std = append(std, imp)
	}
	sort.Strings(std)
	return order, std
}

// listExports maps each of the standard-library packages and their
// dependencies to its compiler export data file, from one `go list -export`
// run by the toolchain that runs this test.
func listExports(std []string) (map[string]string, error) {
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	args := append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}, std...)
	var stderr bytes.Buffer
	cmd := exec.Command(goCmd, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			exports[path] = file
		}
	}
	return exports, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps a generic instance's func or var to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// uncounted returns the identifiers whose uses reach nothing: every
// identifier in the exempt packages; the identifiers in method receivers,
// so a type named only by its own methods' receivers is not reached; and a
// function's or method's uses of itself inside its own body, so recursion
// does not reach itself. Longer cycles, functions reached only from each
// other, still count.
func uncounted(pkgs map[string]*sourcePackage, info *types.Info) map[*ast.Ident]bool {
	skip := map[*ast.Ident]bool{}
	mark := func(n ast.Node, pred func(*ast.Ident) bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pred(id) {
				skip[id] = true
			}
			return true
		})
	}
	all := func(*ast.Ident) bool { return true }
	for _, p := range pkgs {
		for _, f := range p.files {
			if exemptPackages[p.dir] {
				mark(f, all)
				continue
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn.Recv != nil {
					mark(fn.Recv, all)
				}
				if self := info.Defs[fn.Name]; self != nil && fn.Body != nil {
					mark(fn.Body, func(id *ast.Ident) bool {
						use, ok := info.Uses[id]
						return ok && origin(use) == self
					})
				}
			}
		}
	}
	return skip
}

// interfaceMethods returns a predicate that reports whether a concrete
// method can be reached through an interface: one declared in the module,
// exported by an imported standard-library package, or the predeclared
// error, with a method of the same name and an identical signature; or a
// generic interface declared in the module, such as the constraint
// raja.Reducer[A], whose signatures name its type parameters, with a method
// of the same name.
func interfaceMethods(info *types.Info, std types.Importer, stdImports []string) func(types.Object) bool {
	var sigs []*types.Func
	addSigs := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				sigs = append(sigs, iface.Method(i))
			}
		}
	}
	for expr, tv := range info.Types {
		if _, ok := expr.(*ast.InterfaceType); ok {
			addSigs(tv.Type)
		}
	}
	addSigs(types.Universe.Lookup("error").Type())
	for _, path := range stdImports {
		if p, err := std.Import(path); err == nil {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addSigs(tn.Type())
				}
			}
		}
	}
	names := map[string]bool{}
	for _, obj := range info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() == 0 {
			continue
		}
		if iface, ok := named.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				names[iface.Method(i).Name()] = true
			}
		}
	}
	return func(obj types.Object) bool {
		fn, ok := obj.(*types.Func)
		if !ok {
			return false
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil || types.IsInterface(recv.Type()) {
			return false
		}
		if names[fn.Name()] {
			return true
		}
		for _, m := range sigs {
			if m.Name() == fn.Name() && types.Identical(m.Type(), fn.Type()) {
				return true
			}
		}
		return false
	}
}

// declaration is one checked package-level object or method.
type declaration struct {
	key string
	obj types.Object
}

// declarations returns the package-level funcs, vars, consts and types of
// pkg declared in its non-test files, the methods of its named types and
// the explicit methods of its named interfaces, without main, init and the
// blank identifier.
func declarations(pkg *types.Package) []declaration {
	var out []declaration
	add := func(m *types.Func) {
		if m.Name() != "_" {
			out = append(out, declaration{objectKey(m), m})
		}
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if name != "main" && name != "init" && name != "_" {
			out = append(out, declaration{objectKey(obj), obj})
		}
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					add(named.Method(i))
				}
				if iface, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumExplicitMethods(); i++ {
						add(iface.ExplicitMethod(i))
					}
				}
			}
		}
	}
	return out
}

// objectKey names obj as package.Name, or package.Type.Method for a method.
func objectKey(obj types.Object) string {
	prefix := obj.Pkg().Name() + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			prefix += t.(*types.Named).Obj().Name() + "."
		}
	}
	return prefix + obj.Name()
}

// fields returns the fields of pkg's package-level named struct types that
// the field rules check: not blank, without a json tag, since
// encoding/json reads and fills those, and not in hashed, the fields of
// map-key struct types.
func fields(pkg *types.Package, hashed map[types.Object]bool) []declaration {
	var out []declaration
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); f.Name() == "_" || tagged || hashed[f] {
				continue
			}
			out = append(out, declaration{pkg.Name() + "." + name + "." + f.Name(), f})
		}
	}
	return out
}

// mapKeyFields returns the fields of every struct type used as a map key,
// nested structs included: hashing the key reads them all.
func mapKeyFields(info *types.Info) map[types.Object]bool {
	hashed := map[types.Object]bool{}
	var mark func(t types.Type)
	mark = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				hashed[u.Field(i).Origin()] = true
				mark(u.Field(i).Type())
			}
		case *types.Array:
			mark(u.Elem())
		}
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			mark(m.Key())
		}
	}
	return hashed
}

// fieldUses returns the struct fields that non-test code outside the
// exempt packages reads and those it writes. A selector x.f reads f unless
// it is the direct left side of an assignment or of ++ or --, or the
// first argument of an append assigned back to it (x.f = append(x.f, v)),
// which only write it. &x.f, a pointer-method call x.f.M(), x.f as the base of an
// element, field or indirection that is assigned (x.f[i] = v, x.f.g = v,
// *x.f = v) and x.f as the first argument of copy or clear both read and
// write f. Every embedded field on a promoted path is read, and written
// too when the promoted access writes. An element of a composite literal,
// keyed or positional, writes its field.
func fieldUses(pkgs map[string]*sourcePackage, info *types.Info) (read, written map[types.Object]bool) {
	read, written = map[types.Object]bool{}, map[types.Object]bool{}
	for _, p := range pkgs {
		if exemptPackages[p.dir] {
			continue
		}
		for _, f := range p.files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := deref(info.Types[n].Type).Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							written[origin(info.Uses[kv.Key.(*ast.Ident)])] = true
						} else {
							written[st.Field(i).Origin()] = true
						}
					}
				case *ast.SelectorExpr:
					sel := info.Selections[n]
					if sel == nil {
						return true
					}
					r, w := access(stack, info)
					if sel.Kind() == types.FieldVal {
						if r {
							read[origin(sel.Obj())] = true
						}
						if w {
							written[origin(sel.Obj())] = true
						}
					} else {
						w = pointerMethod(sel.Obj())
					}
					t := sel.Recv()
					for _, i := range sel.Index()[:len(sel.Index())-1] {
						f := deref(t).Underlying().(*types.Struct).Field(i)
						read[f.Origin()] = true
						written[f.Origin()] = written[f.Origin()] || w
						t = f.Type()
					}
				}
				return true
			})
		}
	}
	return read, written
}

// access reports whether the selector on top of stack, whose entries are
// its enclosing nodes, is read and whether it is written (see fieldUses).
func access(stack []ast.Node, info *types.Info) (read, write bool) {
	child, direct := stack[len(stack)-1], true
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
		case *ast.StarExpr:
			direct = false
		case *ast.IndexExpr:
			if p.X != child {
				return true, false
			}
			direct = false
		case *ast.SliceExpr:
			if p.X != child {
				return true, false
			}
			direct = false
		case *ast.SelectorExpr:
			sel := info.Selections[p]
			if sel.Kind() != types.FieldVal {
				_, isPtr := info.Types[child.(ast.Expr)].Type.Underlying().(*types.Pointer)
				return true, pointerMethod(sel.Obj()) && !isPtr
			}
			direct = false
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == child {
					return !direct, true
				}
			}
			return true, false
		case *ast.IncDecStmt:
			return !direct, true
		case *ast.UnaryExpr:
			return true, p.Op == token.AND
		case *ast.CallExpr:
			fn, ok := ast.Unparen(p.Fun).(*ast.Ident)
			if !ok || len(p.Args) == 0 || p.Args[0] != child {
				return true, false
			}
			b, ok := info.Uses[fn].(*types.Builtin)
			if !ok {
				return true, false
			}
			if b.Name() == "append" && i > 0 && assignedBack(stack[i-1], p, p.Args[0]) {
				return !direct, true
			}
			return true, b.Name() == "copy" || b.Name() == "clear"
		default:
			return true, false
		}
		child = stack[i]
	}
	return true, false
}

// assignedBack reports whether parent assigns call to the expression
// written as arg, as x.f = append(x.f, v) does.
func assignedBack(parent ast.Node, call *ast.CallExpr, arg ast.Expr) bool {
	as, ok := parent.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return false
	}
	for j, rhs := range as.Rhs {
		if rhs == call {
			return types.ExprString(as.Lhs[j]) == types.ExprString(arg)
		}
	}
	return false
}

// pointerMethod reports whether obj is a method with a pointer receiver.
func pointerMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	_, ptr := fn.Type().(*types.Signature).Recv().Type().(*types.Pointer)
	return ptr
}

// deref returns the element type of a pointer type, and any other type as
// it is.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
