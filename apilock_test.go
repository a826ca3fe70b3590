package diva_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// publicPackages are the packages whose exported declarations make up the
// public API.
var publicPackages = []struct{ name, dir string }{
	{"diva", "."},
	{"diva/experiments", "experiments"},
	{"diva/fault", "fault"},
	{"diva/serve", "serve"},
	{"diva/snapstore", "snapstore"},
	{"diva/spec", "spec"},
	{"diva/strategy", "strategy"},
	{"diva/topology", "topology"},
}

// TestPublicAPILock pins the exported surface of the public packages —
// diva, diva/experiments, diva/fault, diva/serve, diva/snapstore,
// diva/spec, diva/strategy and diva/topology — against testdata/api.txt. The
// public API is a compatibility promise to embedding applications: a
// failure here means an exported name or signature changed. If the change
// is intentional, regenerate the golden file with
//
//	DIVA_UPDATE_API=1 go test -run TestPublicAPILock .
//
// and review the diff like any other API change.
func TestPublicAPILock(t *testing.T) {
	var got []string
	for _, p := range publicPackages {
		got = append(got, exportedSurface(t, p.name, p.dir)...)
	}
	sort.Strings(got)
	surface := strings.Join(got, "\n") + "\n"

	const golden = "testdata/api.txt"
	if os.Getenv("DIVA_UPDATE_API") != "" {
		if err := os.WriteFile(golden, []byte(surface), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d declarations)", golden, len(got))
		return
	}
	wantRaw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with DIVA_UPDATE_API=1 to create the golden file)", err)
	}
	want := strings.Split(strings.TrimRight(string(wantRaw), "\n"), "\n")
	wantSet := make(map[string]bool, len(want))
	for _, l := range want {
		wantSet[l] = true
	}
	gotSet := make(map[string]bool, len(got))
	for _, l := range got {
		gotSet[l] = true
	}
	for _, l := range want {
		if !gotSet[l] {
			t.Errorf("public API lost or changed:\n  %s", l)
		}
	}
	for _, l := range got {
		if !wantSet[l] {
			t.Errorf("public API gained undeclared surface:\n  %s", l)
		}
	}
	if t.Failed() {
		t.Log("if intentional: DIVA_UPDATE_API=1 go test -run TestPublicAPILock . && review the testdata/api.txt diff")
	}
}

// exportedSurface parses the package in dir (without type checking — the
// surface is a syntactic property of our own source) and returns one
// normalized line per exported declaration.
func exportedSurface(t *testing.T, pkgName, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			lines = append(lines, declSurface(fset, pkgName, decl)...)
		}
	}
	return lines
}

// declSurface renders the exported parts of one top-level declaration.
func declSurface(fset *token.FileSet, pkg string, decl ast.Decl) []string {
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		if d.Recv != nil {
			// Methods on unexported types are not public surface; the
			// public packages currently declare no exported concrete
			// types with methods (aliases carry theirs from internal).
			if !receiverExported(d.Recv) {
				return nil
			}
			out = append(out, pkg+": method "+render(fset, d.Recv.List[0].Type)+"."+d.Name.Name+strings.TrimPrefix(render(fset, d.Type), "func"))
			return out
		}
		out = append(out, pkg+": func "+d.Name.Name+strings.TrimPrefix(render(fset, d.Type), "func"))
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				eq := " "
				if s.Assign.IsValid() {
					eq = " = "
				}
				out = append(out, pkg+": type "+s.Name.Name+eq+render(fset, s.Type))
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if !n.IsExported() {
						continue
					}
					kind := "var"
					if d.Tok == token.CONST {
						kind = "const"
					}
					out = append(out, pkg+": "+kind+" "+n.Name)
				}
			}
		}
	}
	return out
}

func receiverExported(recv *ast.FieldList) bool {
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && id.IsExported()
}

// render prints a syntax node on one line with collapsed whitespace.
func render(fset *token.FileSet, node ast.Node) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, fset, node); err != nil {
		return "<render error>"
	}
	return strings.Join(strings.Fields(b.String()), " ")
}
