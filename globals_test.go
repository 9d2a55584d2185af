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
	walkModule(t, func(path string) error {
		if strings.HasSuffix(path, "_test.go") {
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
	if files == 0 {
		t.Fatal("no Go files found")
	}
}

// walkModule calls fn on every Go file of this module, test files
// included, skipping the directories the go tool ignores and nested
// modules such as benchmark/.
func walkModule(t *testing.T, fn func(path string) error) {
	t.Helper()
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		return fn(path)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFuzzSmokeRunsEveryTarget keeps `make fuzz-smoke` complete: every
// `func FuzzX(*testing.F)` in the module's test files must have a
// `-fuzz=FuzzX` line for its own package in the Makefile's fuzz-smoke
// recipe, and every target the recipe lists must exist there.
func TestFuzzSmokeRunsEveryTarget(t *testing.T) {
	type target struct{ pkg, name string }
	have := map[target]bool{}
	fset := token.NewFileSet()
	walkModule(t, func(path string) error {
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Fuzz") || len(fd.Type.Params.List) != 1 {
				continue
			}
			if star, ok := fd.Type.Params.List[0].Type.(*ast.StarExpr); ok {
				if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "F" {
					have[target{filepath.Dir(path), fd.Name.Name}] = true
				}
			}
		}
		return nil
	})

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[target]bool{}
	_, recipe, ok := strings.Cut(string(makefile), "\nfuzz-smoke:")
	if !ok {
		t.Fatal("Makefile has no fuzz-smoke target")
	}
	for _, line := range strings.Split(recipe, "\n")[1:] {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		fields := strings.Fields(line)
		for _, f := range fields {
			if name, ok := strings.CutPrefix(f, "-fuzz="); ok {
				listed[target{filepath.Clean(fields[len(fields)-1]), name}] = true
			}
		}
	}
	for tg := range have {
		if !listed[tg] {
			t.Errorf("%s in %s has no -fuzz=%s line in make fuzz-smoke", tg.name, tg.pkg, tg.name)
		}
	}
	for tg := range listed {
		if !have[tg] {
			t.Errorf("make fuzz-smoke runs -fuzz=%s in %s, which has no such fuzz target", tg.name, tg.pkg)
		}
	}
	if len(have) == 0 {
		t.Fatal("no fuzz targets found")
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
