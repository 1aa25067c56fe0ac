package rgb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestArchitectureRules checks, by parsing the non-test Go files under
// internal/, rules the documentation states as prose. Each row quotes
// the sentence it enforces. A row's packages and allowlist are the
// test's data: shrinking an allowlist is progress, growing one is a
// reviewed diff.
func TestArchitectureRules(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := parseInternal(t, fset)
	simulation := []string{"internal/des", "internal/simnet", "internal/core"}
	rows := []struct {
		rule  string   // where the rule is stated, and the sentence
		pkgs  []string // the packages it covers; nil is every one under internal/
		allow []string // packages exempt from it
		check func(f *ast.File) []ast.Node
	}{
		{
			rule:  `docs/ARCHITECTURE.md, determinism rule 2: "No time.Now() (except wall-clock reporting)"`,
			pkgs:  simulation,
			check: wallClockReads,
		},
		{
			rule:  `docs/ARCHITECTURE.md, determinism rule 1: "All concurrency inside a run is virtual: events interleave on the DES clock, never on goroutines."`,
			pkgs:  simulation,
			check: goStatements,
		},
		{
			rule:  `docs/ARCHITECTURE.md, determinism rule 2: "no global math/rand ... The one process-wide random draw, ids.hashSeed"`,
			allow: []string{"internal/ids"},
			check: mathRandImports,
		},
		{
			rule: `docs/ARCHITECTURE.md, Layer 3, ring views: "Node.roster and Node.leader are assigned only in internal/core/node.go, by the protocol's handlers"`,
			pkgs: []string{"internal/core"},
			check: func(f *ast.File) []ast.Node {
				if filepath.Base(fset.File(f.Pos()).Name()) == "node.go" {
					return nil
				}
				return fieldWrites(f, "roster", "leader")
			},
		},
	}
	for _, pkg := range simulation {
		if len(pkgs[pkg]) == 0 {
			t.Fatalf("no Go files parsed in %s: the rules below would pass vacuously", pkg)
		}
	}
	for _, row := range rows {
		for _, pkg := range slices.Sorted(maps.Keys(pkgs)) {
			files := pkgs[pkg]
			if row.pkgs != nil && !slices.Contains(row.pkgs, pkg) || slices.Contains(row.allow, pkg) {
				continue
			}
			for _, f := range files {
				for _, n := range row.check(f) {
					t.Errorf("%s breaks %s", fset.Position(n.Pos()), row.rule)
				}
			}
		}
	}
}

// parseInternal parses every non-test Go file under internal/, keyed by
// its package directory.
func parseInternal(t *testing.T, fset *token.FileSet) map[string][]*ast.File {
	t.Helper()
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgs[dir] = append(pkgs[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// importName is the name f refers to the package at path by, or "" if
// f does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return path[strings.LastIndex(path, "/")+1:]
	}
	return ""
}

// wallClockReads finds time.Now, time.Since and time.Until.
func wallClockReads(f *ast.File) []ast.Node {
	name := importName(f, "time")
	if name == "" {
		return nil
	}
	var found []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == name &&
				(sel.Sel.Name == "Now" || sel.Sel.Name == "Since" || sel.Sel.Name == "Until") {
				found = append(found, sel)
			}
		}
		return true
	})
	return found
}

// goStatements finds go statements.
func goStatements(f *ast.File) []ast.Node {
	var found []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			found = append(found, g)
		}
		return true
	})
	return found
}

// mathRandImports finds imports of math/rand and math/rand/v2.
func mathRandImports(f *ast.File) []ast.Node {
	var found []ast.Node
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" || strings.HasPrefix(p, "math/rand/") {
			found = append(found, imp)
		}
	}
	return found
}

// fieldWrites finds assignments to, and copies into, a field with one
// of the given names, whatever the receiver: x.name = v, x.name[i] = v,
// x.name++ and copy(x.name, src).
func fieldWrites(f *ast.File, names ...string) []ast.Node {
	named := func(e ast.Expr) bool {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.SelectorExpr:
				return slices.Contains(names, x.Sel.Name)
			default:
				return false
			}
		}
	}
	var found []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if named(lhs) {
					found = append(found, lhs)
				}
			}
		case *ast.IncDecStmt:
			if named(s.X) {
				found = append(found, s.X)
			}
		case *ast.CallExpr:
			if id, ok := s.Fun.(*ast.Ident); ok && id.Name == "copy" && len(s.Args) == 2 && named(s.Args[0]) {
				found = append(found, s)
			}
		}
		return true
	})
	return found
}
