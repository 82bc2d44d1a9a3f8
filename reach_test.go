package memqlat_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// unreachedRefs lists the package-level funcs, methods and types that no
// non-test code reaches but a test keeps as the reference for live code,
// each with the test that uses it. The list only shrinks: a declaration
// nothing reaches is deleted, not listed.
var unreachedRefs = map[string]string{
	// The exact T_D(N) law that TDQuantile inverts.
	"internal/core.Config.TDCDF": "TestTDQuantileClosedForm",
	// D/M/1 arrivals, where the eq. 6 root has a closed form.
	"internal/dist.Deterministic":                  "TestDeltaDeterministicArrivals",
	"internal/dist.Deterministic.CDF":              "TestDeltaDeterministicArrivals",
	"internal/dist.Deterministic.LaplaceTransform": "TestDeltaDeterministicArrivals",
	"internal/dist.Deterministic.Mean":             "TestDeltaDeterministicArrivals",
	"internal/dist.Deterministic.Sample":           "TestDeltaDeterministicArrivals",
	"internal/dist.NewDeterministic":               "TestDeltaDeterministicArrivals",
	// The fmt-based VALUE writer the zero-alloc ValueBytes must match.
	"internal/protocol.Writer.Value": "TestWriterValueBytesMatchesValue",
	// The eq. 4–5 CDFs that the eq. 7 quantiles invert.
	"internal/queueing.BatchQueue.SojournCDF": "TestCDFsAndQuantilesConsistent",
	"internal/queueing.BatchQueue.WaitingCDF": "TestCDFsAndQuantilesConsistent",
	// Bucket-level comparisons of a histogram against a reference run.
	"internal/stats.Histogram.EachBucket":     "TestSimulateIntegratedMatchesReference",
	"internal/stats.Histogram.QuantileBounds": "TestHistogramMergeQuantileRoundTrip",
	// The normal CDF that normQuantile inverts.
	"internal/stats.NormCDF": "TestNormQuantileInvertsCDF",
	// The stage set both connection cores must report alike.
	"internal/telemetry.Breakdown.StageSet": "TestConnCoreEquivalence",
}

// dynamicMethods are the methods the standard library calls by dynamic
// interface check (fmt, errors, encoding) rather than through an
// interface the program names.
var dynamicMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true, "Timeout": true, "Temporary": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// TestReachability type-checks every non-test package of the module,
// bench/ (its own module, measured as it is) and the standard library
// they import, from source. Starting at every main and init and at the
// package-level variables, it follows each reference to a func, method,
// type, const or variable, and reaches a method of a reached type when
// the method implements an interface method the program uses. It fails
// on an unreached declaration outside bench/ and internal/testkit (a
// test-only package) that unreachedRefs does not list, and on a listed
// one that is reached, gone, or names no test.
func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	l := newLoader()
	if err := l.loadModule("."); err != nil {
		t.Fatal(err)
	}
	unreached := l.unreached()
	tests, err := testFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unreached {
		if _, ok := unreachedRefs[name]; !ok {
			t.Errorf("%s: no non-test code reaches it; delete it", name)
		}
	}
	for name, test := range unreachedRefs {
		switch {
		case !slices.Contains(unreached, name):
			t.Errorf("%s is reached or gone: delete its unreachedRefs entry", name)
		case !tests[test]:
			t.Errorf("%s: its unreachedRefs entry names %q, which is no test", name, test)
		}
	}
}

// progPkg is one package of the program, kept with its syntax.
type progPkg struct {
	dir   string // slash path from the module root; "." for the root
	main  bool
	files []*ast.File
	info  *types.Info
}

// loader type-checks the program's packages with full bodies and the
// standard library's with signatures only, each once.
type loader struct {
	fset *token.FileSet
	ctxt build.Context
	dirs map[string]string // program import path → directory
	pkgs map[string]*types.Package
	prog []*progPkg
}

func newLoader() *loader {
	ctxt := build.Default
	ctxt.CgoEnabled = false // the pure-Go files type-check without running cgo
	return &loader{fset: token.NewFileSet(), ctxt: ctxt, dirs: map[string]string{}, pkgs: map[string]*types.Package{}}
}

// loadModule finds every package directory under root (bench/ under its
// own module path) and type-checks each.
func (l *loader) loadModule(root string) error {
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		rel := filepath.ToSlash(path)
		switch {
		case rel == ".":
			l.dirs["memqlat"] = path
		case rel == "bench":
			l.dirs["memqlat/bench"] = path
		default:
			l.dirs["memqlat/"+rel] = path
		}
		return nil
	})
	if err != nil {
		return err
	}
	for path := range l.dirs {
		if _, err := l.ImportFrom(path, "", 0); err != nil {
			var none *build.NoGoError
			if !errors.As(err, &none) {
				return err
			}
		}
	}
	return nil
}

func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

func (l *loader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	dir, own := l.dirs[path]
	var bp *build.Package
	var err error
	if own {
		bp, err = l.ctxt.ImportDir(dir, 0)
	} else {
		bp, err = l.ctxt.Import(path, srcDir, 0)
	}
	if err != nil {
		return nil, err
	}
	if !own {
		path = bp.ImportPath // vendored std packages resolve under vendor/
	}
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	l.pkgs[path] = nil
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l, IgnoreFuncBodies: !own, FakeImportC: true}
	var info *types.Info
	if own {
		info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = pkg
	if own {
		l.prog = append(l.prog, &progPkg{dir: filepath.ToSlash(dir), main: bp.Name == "main", files: files, info: info})
	}
	return pkg, nil
}

// decl is one package-level declaration: its syntax and the package
// whose info resolves it.
type decl struct {
	node ast.Node
	pkg  *progPkg
}

// reacher walks references from the roots to a fixed point.
type reacher struct {
	decls   map[types.Object]decl
	reached map[types.Object]bool
	work    []types.Object
	types   []*types.TypeName             // reached program types, in order
	ifaces  map[string][]*types.Signature // interface methods the program uses, by name
	seen    map[types.Type]bool
}

// unreached returns the keys of the program's unreached funcs, methods
// and types, outside bench/ and internal/testkit.
func (l *loader) unreached() []string {
	r := &reacher{
		decls: map[types.Object]decl{}, reached: map[types.Object]bool{},
		ifaces: map[string][]*types.Signature{}, seen: map[types.Type]bool{},
	}
	var roots []types.Object
	var vars []decl
	for _, p := range l.prog {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					r.decls[obj] = decl{d, p}
					if d.Recv == nil && (d.Name.Name == "init" || p.main && d.Name.Name == "main") {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							r.decls[p.info.Defs[s.Name]] = decl{s, p}
						case *ast.ValueSpec:
							if d.Tok == token.VAR {
								// `var _ I = T{}` asserts at compile time;
								// it reaches nothing when the program runs.
								if !(s.Type != nil && len(s.Names) == 1 && s.Names[0].Name == "_") {
									vars = append(vars, decl{s, p})
								}
								continue
							}
							for _, id := range s.Names {
								r.decls[p.info.Defs[id]] = decl{s, p}
							}
						}
					}
				}
			}
		}
	}
	for _, obj := range roots {
		r.reach(obj)
	}
	for _, d := range vars {
		r.walk(d)
	}
	for r.drain() {
		r.methods()
	}
	var out []string
	for obj, d := range r.decls {
		if r.reached[obj] || d.pkg.dir == "bench" || d.pkg.dir == "internal/testkit" {
			continue
		}
		switch n := d.node.(type) {
		case *ast.FuncDecl:
			out = append(out, funcName(d.pkg.dir, n))
		case *ast.TypeSpec:
			out = append(out, d.pkg.dir+"."+n.Name.Name)
		}
	}
	slices.Sort(out)
	return out
}

// reach marks obj, a program declaration, reached.
func (r *reacher) reach(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.TypeName:
		if n, ok := o.Type().(*types.Named); ok && !o.IsAlias() {
			obj = n.Origin().Obj()
		}
	}
	if _, ok := r.decls[obj]; !ok || r.reached[obj] {
		return
	}
	r.reached[obj] = true
	r.work = append(r.work, obj)
	if tn, ok := obj.(*types.TypeName); ok {
		r.types = append(r.types, tn)
	}
}

// drain walks the declarations reached so far; false once nothing is left.
func (r *reacher) drain() bool {
	if len(r.work) == 0 {
		return false
	}
	for len(r.work) > 0 {
		obj := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		r.walk(r.decls[obj])
	}
	return true
}

// walk reaches what d's syntax refers to: the objects it names and the
// named types of its expressions, and records the interfaces it uses.
func (r *reacher) walk(d decl) {
	info := d.pkg.info
	ast.Inspect(d.node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil {
				r.reach(obj)
				if fn, ok := obj.(*types.Func); ok {
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						r.useMethod(fn)
					}
				}
				r.typ(obj.Type())
			}
		case ast.Expr:
			if tv, ok := info.Types[n]; ok {
				r.typ(tv.Type)
			}
		}
		return true
	})
}

// typ reaches the program types t is built from and records the methods
// of the interfaces in it, through signatures and element types.
func (r *reacher) typ(t types.Type) {
	if t == nil || r.seen[t] {
		return
	}
	r.seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		r.reach(t.Obj())
		for i := 0; i < t.TypeArgs().Len(); i++ {
			r.typ(t.TypeArgs().At(i))
		}
		if types.IsInterface(t) {
			r.typ(t.Underlying())
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			r.useMethod(t.Method(i))
		}
	case *types.Pointer:
		r.typ(t.Elem())
	case *types.Slice:
		r.typ(t.Elem())
	case *types.Array:
		r.typ(t.Elem())
	case *types.Chan:
		r.typ(t.Elem())
	case *types.Map:
		r.typ(t.Key())
		r.typ(t.Elem())
	case *types.Signature:
		r.typ(t.Params())
		r.typ(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			r.typ(t.At(i).Type())
		}
	}
}

// useMethod records an interface method the program may call.
func (r *reacher) useMethod(m *types.Func) {
	sig := m.Type().(*types.Signature)
	if !slices.ContainsFunc(r.ifaces[m.Name()], func(s *types.Signature) bool { return types.Identical(s, sig) }) {
		r.ifaces[m.Name()] = append(r.ifaces[m.Name()], sig)
		r.typ(sig)
	}
}

// methods reaches each method of a reached type, promoted ones included,
// that implements a used interface method or one the standard library
// calls by dynamic check.
func (r *reacher) methods() {
	for i := 0; i < len(r.types); i++ {
		t := r.types[i].Type()
		for _, mset := range []*types.MethodSet{types.NewMethodSet(t), types.NewMethodSet(types.NewPointer(t))} {
			for j := 0; j < mset.Len(); j++ {
				m := mset.At(j).Obj().(*types.Func)
				used := dynamicMethods[m.Name()] || slices.ContainsFunc(r.ifaces[m.Name()], func(s *types.Signature) bool {
					return types.Identical(s, m.Type())
				})
				if used {
					r.reach(m)
				}
			}
		}
	}
}

// testFuncs returns the names of the module's Test, Fuzz, Benchmark and
// Example functions.
func testFuncs(root string) (map[string]bool, error) {
	out := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark", "Example"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					out[fn.Name.Name] = true
				}
			}
		}
		return nil
	})
	return out, err
}
