package rgb

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestAPISurfaceLock snapshots the exported surface of package rgb —
// every exported type, function, method, constant and variable, with
// signatures, and the exported and embedded fields of every exported
// struct, an alias's target included — against
// testdata/api_surface.golden. An API redesign
// is a deliberate act: any change to the public surface must show up
// as an explicit diff of the golden file in the PR. Regenerate with
//
//	go test -run TestAPISurfaceLock -update-api-surface .
var updateAPISurface = flag.Bool("update-api-surface", false, "rewrite testdata/api_surface.golden")

func TestAPISurfaceLock(t *testing.T) {
	got := renderAPISurface(t)
	const golden = "testdata/api_surface.golden"
	if *updateAPISurface {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing %s (run with -update-api-surface to create): %v", golden, err)
	}
	if got != string(want) {
		t.Fatalf("exported API surface changed.\n--- got ---\n%s\n--- want ---\n%s\n"+
			"If the change is deliberate, regenerate the golden with\n"+
			"  go test -run TestAPISurfaceLock -update-api-surface .\n"+
			"and call the API change out in the PR.", diffHint(got, string(want)), "(see testdata/api_surface.golden)")
	}
}

// diffHint returns the first few differing lines, enough to locate
// the change without dumping both full surfaces.
func diffHint(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; shown < 8 && (i < len(g) || i < len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			fmt.Fprintf(&b, "line %d:\n  got:  %s\n  want: %s\n", i+1, gl, wl)
			shown++
		}
	}
	if shown == 0 {
		return "(surfaces differ only in length)"
	}
	return b.String()
}

// renderAPISurface parses the package's non-test files and renders
// every exported declaration, sorted for stability.
func renderAPISurface(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pkg, ok := pkgs["rgb"]
	if !ok {
		t.Fatalf("package rgb not found (got %v)", pkgs)
	}

	var entries []string
	add := func(node any) {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, node); err != nil {
			t.Fatalf("print: %v", err)
		}
		entries = append(entries, buf.String())
	}

	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedReceiver(d) {
					continue
				}
				fn := *d
				fn.Body = nil // signature only
				fn.Doc = nil
				add(&fn)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					rendered := renderSpec(d.Tok, spec)
					if rendered == nil {
						continue
					}
					add(rendered)
				}
			}
		}
	}
	entries = append(entries, renderAliasFields(t)...)
	sort.Strings(entries)
	return strings.Join(entries, "\n") + "\n"
}

// renderAliasFields renders one entry per exported or embedded field of
// every struct type an exported alias of rgb names, such as
// "field Config.H int" or "field Member.MemberInfo ids.MemberInfo
// embedded": the alias's own line would let its target's fields change
// unseen. rgb's own structs list their fields in their declarations.
func renderAliasFields(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	_, rgb := typecheck(t, fset, parseModule(t, fset))
	qualifier := func(p *types.Package) string { return p.Name() }
	var out []string
	for _, name := range rgb.Scope().Names() {
		tn, ok := rgb.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || !tn.IsAlias() {
			continue
		}
		st, ok := types.Unalias(tn.Type()).Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := range st.NumFields() {
			f := st.Field(i)
			if !f.Exported() && !f.Embedded() {
				continue
			}
			line := fmt.Sprintf("field %s.%s %s", name, f.Name(), types.TypeString(f.Type(), qualifier))
			if f.Embedded() {
				line += " embedded"
			}
			if tag := st.Tag(i); tag != "" {
				line += " `" + tag + "`"
			}
			out = append(out, line)
		}
	}
	return out
}

// exportedReceiver reports whether a method's receiver type is
// exported (true for plain functions).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// renderSpec returns a printable copy of an exported const/var/type
// spec (nil when the spec exports nothing). Struct types are reduced
// to their exported and embedded fields so unexported internals stay
// unlocked.
func renderSpec(tok token.Token, spec ast.Spec) ast.Node {
	switch sp := spec.(type) {
	case *ast.ValueSpec:
		var names []*ast.Ident
		for _, n := range sp.Names {
			if n.IsExported() {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			return nil
		}
		out := *sp
		out.Doc, out.Comment = nil, nil
		out.Names = names
		out.Values = nil // lock names and types, not initializers
		return &ast.GenDecl{Tok: tok, Specs: []ast.Spec{&out}}
	case *ast.TypeSpec:
		if !sp.Name.IsExported() {
			return nil
		}
		out := *sp
		out.Doc, out.Comment = nil, nil
		if st, ok := sp.Type.(*ast.StructType); ok {
			filtered := &ast.FieldList{}
			for _, f := range st.Fields.List {
				keep := len(f.Names) == 0 // embedded
				for _, n := range f.Names {
					if n.IsExported() {
						keep = true
					}
				}
				if keep {
					ff := *f
					ff.Doc, ff.Comment = nil, nil
					filtered.List = append(filtered.List, &ff)
				}
			}
			stCopy := *st
			stCopy.Fields = filtered
			out.Type = &stCopy
		}
		return &ast.GenDecl{Tok: token.TYPE, Specs: []ast.Spec{&out}}
	default:
		return nil
	}
}
