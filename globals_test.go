package treesched_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoMutableGlobalsOrDeprecatedShims keeps the module free of
// package-level switches and of deprecated API: it parses every
// non-test Go file of this module (directories the go tool ignores
// and nested modules such as benchmark/ are skipped) and fails on an
// exported package-level var that is not a sentinel error made by
// errors.New, and on any comment line starting "Deprecated:".
func TestNoMutableGlobalsOrDeprecatedShims(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if name := d.Name(); strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files++
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if name.IsExported() && (i >= len(vs.Values) || !isErrorsNew(vs.Values[i])) {
						t.Errorf("%s: exported package-level var %s is not a sentinel error (errors.New)", fset.Position(name.Pos()), name.Name)
					}
				}
			}
		}
		for _, cg := range f.Comments {
			for _, line := range strings.Split(cg.Text(), "\n") {
				if strings.HasPrefix(line, "Deprecated:") {
					t.Errorf("%s: deprecated API: %s", fset.Position(cg.Pos()), line)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files found")
	}
}

// isErrorsNew reports whether e is a call errors.New(...).
func isErrorsNew(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "errors" && sel.Sel.Name == "New"
}
