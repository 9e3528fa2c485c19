package rajaperf

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exceptions lists the exported names that no non-test file names but that
// stay, keyed as in the test's failure lines (package.Name or
// package.Type.Method), each with the reason it stays.
var exceptions = map[string]string{
	"caliper.FileError.Unwrap":         "reached through errors.Is/As on a FileError",
	"resilience.TransientError.Unwrap": "reached through errors.Is/As on a TransientError",
	"frame.Engine.InvalidateFrame":     "querytest's TestCacheInvalidationAfterAppend drives eager invalidation through it",
	"kernels.ByGroup":                  "each kernel group's tests (basic, lcals, polybench, stream, apps, algorithms, comm) enumerate their group through it",
	"resilience.Injector.Fired":        "campaign and suite fault tests observe which fault points fired through it",
}

// exemptPackages are test-support packages: their exports exist for other
// packages' tests, so they are not checked. Their references still count.
var exemptPackages = map[string]bool{
	"internal/kernels/kerneltest": true,
	"internal/frame/querytest":    true,
}

// export is one exported top-level declaration of a non-main package.
type export struct {
	key string // package.Name or package.Type.Method
	pos token.Position
}

// TestExportsReachable fails on any exported function, method, var, const or
// type that no non-test file of the module or of the nested perfbench module
// names. Matching is by identifier, so it is conservative: a name collision
// can hide a dead export, but never flags a live one. perfbench counts as a
// caller: it builds against this module's packages but is its own module, so
// the root `go build ./...` never compiles it.
func TestExportsReachable(t *testing.T) {
	fset := token.NewFileSet()
	var exports []export
	refs := map[string]int{}
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		checked := f.Name.Name != "main" && !exemptPackages[filepath.ToSlash(filepath.Dir(path))]
		exports = append(exports, collectRefs(fset, f, checked, refs)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}
	var dead []string
	for _, e := range exports {
		declared[e.key] = true
		if refs[e.key[strings.LastIndexByte(e.key, '.')+1:]] > 0 {
			continue
		}
		if _, ok := exceptions[e.key]; !ok {
			dead = append(dead, fmt.Sprintf("%s:%d %s", e.pos.Filename, e.pos.Line, e.key))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: exported but never named outside tests; delete it or list it in exceptions", d)
	}
	for key := range exceptions {
		switch {
		case !declared[key]:
			t.Errorf("stale exception %s: no longer declared", key)
		case refs[key[strings.LastIndexByte(key, '.')+1:]] > 0:
			t.Errorf("stale exception %s: now referenced", key)
		}
	}
}

// collectRefs counts every identifier of f in refs, except the names that
// top-level declarations declare and method receivers. When checked is set it
// returns f's exported top-level declarations.
func collectRefs(fset *token.FileSet, f *ast.File, checked bool, refs map[string]int) []export {
	pkg := f.Name.Name
	var exports []export
	skip := map[*ast.Ident]bool{}
	declare := func(id *ast.Ident, key string) {
		skip[id] = true
		if checked && id.IsExported() {
			exports = append(exports, export{key: key, pos: fset.Position(id.Pos())})
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				declare(d.Name, pkg+"."+d.Name.Name)
				continue
			}
			ast.Inspect(d.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					skip[id] = true
				}
				return true
			})
			declare(d.Name, pkg+"."+receiverType(d.Recv.List[0].Type)+"."+d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declare(s.Name, pkg+"."+s.Name.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						declare(id, pkg+"."+id.Name)
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !skip[id] {
			refs[id.Name]++
		}
		return true
	})
	return exports
}

// receiverType returns the type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func receiverType(e ast.Expr) string {
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
