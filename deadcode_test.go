package diva_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoTestOnlyCode keeps the program free of code that only tests use.
// It type-checks every non-test file of the module, and of the repository
// benchmark (benchmark/, a module of its own that imports internal
// packages) whose uses count but whose own declarations are not checked,
// and fails on any package-level function, type, var, const or method that
// no non-test file uses. Exempt are the public packages' declarations and
// the method sets of every type they declare or alias, methods that
// implement an interface of the program or of a standard package it
// imports (type-parameter constraints included), the methods errors.Is and
// errors.As call (calledInStd), internal/core/coretest, main and init.
//
// It also holds examples/ and cmd/, their tests included, to the public
// API: none of them may import diva/internal/....
func TestNoTestOnlyCode(t *testing.T) {
	prog, err := scanModule([]modRoot{{".", "diva"}, {"benchmark", "diva/benchmark"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prog.pkgs {
		if !strings.HasPrefix(p.dir, "examples") && !strings.HasPrefix(p.dir, "cmd") {
			continue
		}
		for _, imps := range [][]string{p.bp.Imports, p.bp.TestImports, p.bp.XTestImports} {
			for _, imp := range imps {
				if strings.HasPrefix(imp, "diva/internal/") {
					t.Errorf("%s imports %s: examples/ and cmd/ must use the public diva API", p.dir, imp)
				}
			}
		}
	}
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	var public []string
	for _, p := range publicPackages {
		public = append(public, p.name)
	}
	dead, err := prog.deadDecls(public, []string{"diva/internal/core/coretest", "diva/benchmark"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("used only by tests or not at all: %s", d)
	}
}

// TestDeadDeclRules runs the check on a small module under testdata: of an
// unused function, a method only a _test.go file calls, a method that
// satisfies an interface, a method called through a type-parameter
// constraint, a method of a publicly aliased type and an error's Unwrap
// that only errors.Is calls, it must flag exactly the first two.
func TestDeadDeclRules(t *testing.T) {
	prog, err := scanModule([]modRoot{{"testdata/deadcode", "fixture"}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.deadDecls([]string{"fixture/pub"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"testdata/deadcode/internal/lib/lib.go:6 unused",
		"testdata/deadcode/internal/lib/lib.go:30 square.onlyTested",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("flagged\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// modRoot is the directory tree of one module.
type modRoot struct{ dir, module string }

type modPkg struct {
	dir   string
	bp    *build.Package
	info  *types.Info
	types *types.Package
}

// program is the set of packages under some module roots, type-checked on
// demand from their non-test files; other imports come from the standard
// library's source.
type program struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*modPkg
}

// scanModule lists the packages under roots, without parsing them. A
// directory with a go.mod of its own below a root belongs to another
// module and is skipped, as is testdata.
func scanModule(roots []modRoot) (*program, error) {
	fset := token.NewFileSet()
	prog := &program{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*modPkg{}}
	for _, r := range roots {
		err := filepath.WalkDir(r.dir, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if dir != r.dir {
				if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			bp, err := build.ImportDir(dir, 0)
			if err != nil {
				var none *build.NoGoError
				if errors.As(err, &none) {
					return nil
				}
				return err
			}
			rel, err := filepath.Rel(r.dir, dir)
			if err != nil {
				return err
			}
			path := r.module
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			prog.pkgs[path] = &modPkg{dir: dir, bp: bp}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// Import resolves the module's packages from source and every other path
// through the standard library importer.
func (prog *program) Import(path string) (*types.Package, error) {
	p, ok := prog.pkgs[path]
	if !ok {
		return prog.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	var files []*ast.File
	for _, name := range p.bp.GoFiles {
		f, err := parser.ParseFile(prog.fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p.info = &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	var err error
	p.types, err = (&types.Config{Importer: prog}).Check(path, prog.fset, files, p.info)
	return p.types, err
}

// deadDecls type-checks every package and returns "file:line name" for each
// package-level declaration no non-test file uses, outside the packages
// public and unchecked, whose uses still count.
func (prog *program) deadDecls(public, unchecked []string) ([]string, error) {
	paths := make([]string, 0, len(prog.pkgs))
	for path := range prog.pkgs {
		paths = append(paths, path)
		if _, err := prog.Import(path); err != nil {
			return nil, err
		}
	}
	sort.Strings(paths)

	used := map[types.Object]bool{}
	ifaces := map[string][]*types.Interface{} // by method name
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	stdSeen := map[*types.Package]bool{}
	var addStd func(pkg *types.Package)
	addStd = func(pkg *types.Package) {
		if stdSeen[pkg] {
			return
		}
		stdSeen[pkg] = true
		if _, ours := prog.pkgs[pkg.Path()]; !ours {
			for _, name := range pkg.Scope().Names() {
				addIface(pkg.Scope().Lookup(name).Type())
			}
		}
		for _, imp := range pkg.Imports() {
			addStd(imp)
		}
	}
	for _, path := range paths {
		p := prog.pkgs[path]
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
		for _, tv := range p.info.Types {
			addIface(tv.Type)
		}
		addStd(p.types)
		// A type argument's methods named by its parameter's constraint
		// are called through it.
		for id, inst := range p.info.Instances {
			var tparams *types.TypeParamList
			switch obj := p.info.Uses[id].(type) {
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok {
					tparams = named.TypeParams()
				}
			case *types.Func:
				tparams = obj.Type().(*types.Signature).TypeParams()
			}
			for i := 0; i < tparams.Len(); i++ {
				constraint := tparams.At(i).Constraint().Underlying().(*types.Interface)
				for j := 0; j < constraint.NumMethods(); j++ {
					m := constraint.Method(j)
					obj, _, _ := types.LookupFieldOrMethod(inst.TypeArgs.At(i), true, m.Pkg(), m.Name())
					if obj != nil {
						used[origin(obj)] = true
					}
				}
			}
		}
	}
	for _, path := range public {
		scope := prog.pkgs[path].types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			for _, t := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				ms := types.NewMethodSet(t)
				for i := 0; i < ms.Len(); i++ {
					if f := ms.At(i).Obj(); f.Exported() {
						used[origin(f)] = true
					}
				}
			}
		}
	}

	skip := map[string]bool{}
	for _, path := range append(public, unchecked...) {
		skip[path] = true
	}
	var dead []types.Object
	for _, path := range paths {
		p := prog.pkgs[path]
		if skip[path] {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !used[obj] && !(name == "main" && p.types.Name() == "main") {
				dead = append(dead, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); !used[m] && !implements(named, ifaces[m.Name()]) && !calledInStd[sigKey(m)] {
					dead = append(dead, m)
				}
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := prog.fset.Position(dead[i].Pos()), prog.fset.Position(dead[j].Pos())
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	out := make([]string, len(dead))
	for i, obj := range dead {
		pos := prog.fset.Position(obj.Pos())
		out[i] = filepath.ToSlash(pos.Filename) + ":" + strconv.Itoa(pos.Line) + " " + declName(obj)
	}
	return out, nil
}

// origin maps a method of an instantiated generic type to its declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// calledInStd holds the methods the standard library calls through
// interfaces it declares inside function bodies — errors.Is, errors.As and
// errors.Unwrap, fmt's %w — which the source importer does not type-check,
// so that no interface the check sees names them.
var calledInStd = map[string]bool{
	"Unwrap() error":   true,
	"Unwrap() []error": true,
	"Is(error) bool":   true,
	"As(any) bool":     true,
}

// sigKey is a method's name and signature without parameter names, as in
// "As(any) bool".
func sigKey(m *types.Func) string {
	sig := m.Type().(*types.Signature)
	var in, out []string
	for i := 0; i < sig.Params().Len(); i++ {
		in = append(in, types.TypeString(sig.Params().At(i).Type(), nil))
	}
	for i := 0; i < sig.Results().Len(); i++ {
		out = append(out, types.TypeString(sig.Results().At(i).Type(), nil))
	}
	return m.Name() + "(" + strings.Join(in, ", ") + ") " + strings.Join(out, ", ")
}

// implements reports whether t or *t implements one of ifaces.
func implements(t types.Type, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// declName is an object's name, a method's qualified by its receiver's
// type name.
func declName(obj types.Object) string {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return obj.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name() + "." + obj.Name()
}
