package memqlat_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// maxFuncLines is the length, signature to closing brace, past which a
// function has to be listed in longFuncs.
const maxFuncLines = 120

// longFuncs are the non-test functions allowed past maxFuncLines, at
// the length each may not exceed. The list only shrinks: split a
// function and delete its entry; never add one or raise a number.
var longFuncs = map[string]int{
	"cmd/mcbench.run": 127,
}

// TestFunctionLengthRatchet parses every non-test Go file of the module
// (bench/ is its own module) and fails on a function over maxFuncLines
// that longFuncs does not list, or on a listed one that grew.
func TestFunctionLengthRatchet(t *testing.T) {
	seen := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			lines := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
			if lines > maxFuncLines {
				seen[funcName(filepath.ToSlash(filepath.Dir(path)), fn)] = lines
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, lines := range seen {
		switch limit, ok := longFuncs[name]; {
		case !ok:
			t.Errorf("%s is %d lines, over the %d-line limit: split it", name, lines, maxFuncLines)
		case lines > limit:
			t.Errorf("%s grew to %d lines, past its recorded %d: split it", name, lines, limit)
		case lines < limit:
			t.Logf("%s shrank to %d lines: lower its entry from %d", name, lines, limit)
		}
	}
	for name := range longFuncs {
		if _, ok := seen[name]; !ok {
			t.Errorf("%s is gone or within %d lines: delete its entry", name, maxFuncLines)
		}
	}
}

// funcName keys a function as dir.Name, or dir.Recv.Name for a method.
func funcName(dir string, fn *ast.FuncDecl) string {
	name := fn.Name.Name
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		typ := fn.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if idx, ok := typ.(*ast.IndexExpr); ok {
			typ = idx.X
		}
		if id, ok := typ.(*ast.Ident); ok {
			name = id.Name + "." + name
		}
	}
	return dir + "." + name
}
