package talon_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"talon/internal/testutil"
)

// TestAPISurfaceGolden pins the exported names of the public package and
// of internal/core: top-level funcs, methods on exported types, types,
// consts and vars, read from the non-test sources. Adding a name means
// regenerating with -update; a removal shows up as a deleted line, so
// the golden's diff is the review record of every surface change.
func TestAPISurfaceGolden(t *testing.T) {
	var names []string
	for _, dir := range []string{".", filepath.Join("internal", "core")} {
		names = append(names, exportedNames(t, dir)...)
	}
	sort.Strings(names)
	got := []byte(strings.Join(names, "\n") + "\n")
	testutil.Golden(t, filepath.Join("testdata", "api.golden"), got)
}

// exportedNames lists dir's exported declarations as "pkg.Name" and
// "pkg.Type.Method".
func exportedNames(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var names []string
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := f.Name.Name + "."
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					names = append(names, pkg+d.Name.Name)
				} else if recv := receiverName(d.Recv.List[0].Type); ast.IsExported(recv) {
					names = append(names, pkg+recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, pkg+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names = append(names, pkg+n.Name)
							}
						}
					}
				}
			}
		}
	}
	return names
}

// receiverName strips the pointer and type parameters from a method
// receiver's type expression.
func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
