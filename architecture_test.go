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
	module := parseModule(t, fset)
	pkgs := map[string][]*ast.File{}
	for dir, files := range module {
		if strings.HasPrefix(dir, "internal/") {
			pkgs[dir] = files
		}
	}
	simulation := []string{"internal/des", "internal/simnet", "internal/core"}
	deterministic := slices.Concat(simulation, []string{"internal/token", "internal/ring", "internal/mq", "internal/wire", "internal/ids"})
	path := func(n ast.Node) string { return filepath.ToSlash(fset.File(n.Pos()).Name()) }
	wallTimers := map[string]int{"internal/runtime/live.go": 2, "internal/runtime/discover.go": 1}
	uncalled := uncalledFuncs(fset, module)
	rows := []struct {
		rule  string   // where the rule is stated, and the sentence
		pkgs  []string // the packages it covers; nil is every one under internal/
		allow []string // packages exempt from it
		check func(f *ast.File) []ast.Node
	}{
		{
			rule:  `docs/ARCHITECTURE.md, determinism rule 2: "No time.Now() (except wall-clock reporting)"`,
			pkgs:  deterministic,
			check: func(f *ast.File) []ast.Node { return pkgSelectors(f, "time", "Now", "Since", "Until") },
		},
		{
			rule:  `docs/ARCHITECTURE.md, determinism rule 1: "All concurrency inside a run is virtual: events interleave on the DES clock, never on goroutines."`,
			pkgs:  deterministic,
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
				if filepath.Base(path(f)) == "node.go" {
					return nil
				}
				return fieldWrites(f, "roster", "leader")
			},
		},
		{
			rule: `docs/ARCHITECTURE.md, Layer 3, ring views: "The static ring.Ring never changes after ring.New"`,
			pkgs: []string{"internal/ring"},
			check: func(f *ast.File) []ast.Node {
				return outside(fset, f, fieldWrites(f, "id", "nodes"), "internal/ring.New")
			},
		},
		{
			rule: `docs/ARCHITECTURE.md, Layer 3, processes on the simulator: "core.Place — the one function that sets Config.Owns and Config.MHBase"`,
			check: func(f *ast.File) []ast.Node {
				return outside(fset, f, append(fieldWrites(f, "Owns", "MHBase"), keyedFields(f, "Owns", "MHBase")...), "internal/core.Place")
			},
		},
		{
			rule: `docs/ARCHITECTURE.md, Layer 2, the socket: "Two functions write to the socket: datagram.write, for the protocol's frames, and the discoverer's sendPayload, for discovery."`,
			check: func(f *ast.File) []ast.Node {
				return outside(fset, f, methodRefs(f, "WriteToUDPAddrPort"), "internal/runtime.datagram.write", "internal/runtime.discoverer.sendPayload")
			},
		},
		{
			rule: `docs/ARCHITECTURE.md, determinism rule 1: "Wall-clock timers run only the live runtime's tick and alarm and the discoverer's probe"`,
			check: func(f *ast.File) []ast.Node {
				if found := pkgSelectors(f, "time", "AfterFunc", "NewTimer", "NewTicker"); len(found) > wallTimers[path(f)] {
					return found
				}
				return nil
			},
		},
		{
			rule:  `ROADMAP.md, item 18: "production code nothing calls goes"; a function only tests call is on uncalledAllowed`,
			check: func(f *ast.File) []ast.Node { return uncalledOutside(fset, f, uncalled) },
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
	for _, name := range uncalledAllowed {
		if !uncalled[name] {
			t.Errorf("%s is on uncalledAllowed but is gone or has a non-test caller now: take it off the list", name)
		}
	}
}

// uncalledAllowed lists the functions and methods under internal/ that
// no non-test file references by name: the accessors tests read state
// through. A new one fails TestArchitectureRules until it is deleted or
// added here.
var uncalledAllowed = []string{
	"internal/analytic.HCNRatio",
	"internal/analytic.HopCountRing",
	"internal/chaos.Engine.Restart",
	"internal/chaos.Proc.Resume",
	"internal/core.Member.LastAckAt",
	"internal/core.Node.NeighborMembers",
	"internal/core.Node.ParentOK",
	"internal/core.System.ExpectedQueryReplies",
	"internal/core.System.FlapScore",
	"internal/core.System.Quarantined",
	"internal/des.Kernel.Executed",
	"internal/des.Kernel.Live",
	"internal/des.Ticker.Fires",
	"internal/mathx.AbsDiff",
	"internal/mathx.AlmostEqual",
	"internal/mathx.BinomialCDF",
	"internal/mathx.Choose",
	"internal/mathx.RNG.Binomial",
	"internal/mathx.RNG.Perm",
	"internal/mq.Op.IsNEOp",
	"internal/mq.Queue.Peek",
	"internal/reliability.TrialOutcome.FunctionWell",
	"internal/simnet.Network.SetTrace",
	"internal/telemetry.Histogram.Sum",
	"internal/topology.TreeHierarchy.MessageEdgeCount",
	"internal/topology.TreeHierarchy.NumLeaves",
	"internal/topology.TreeHierarchy.Root",
	"internal/tree.Server.Applied",
	"internal/tree.Service.ConsistentMembership",
	"internal/wire.DecodePayload",
}

// parseModule parses every non-test Go file of the module, keyed by its
// package directory.
func parseModule(t *testing.T, fset *token.FileSet) map[string][]*ast.File {
	t.Helper()
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
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

// declName names a function declaration by its package directory,
// receiver type and name: "internal/core.Place",
// "internal/runtime.datagram.write".
func declName(fset *token.FileSet, d *ast.FuncDecl) string {
	name := d.Name.Name
	if d.Recv != nil {
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if idx, ok := recv.(*ast.IndexExpr); ok {
			recv = idx.X
		}
		name = recv.(*ast.Ident).Name + "." + name
	}
	return filepath.ToSlash(filepath.Dir(fset.File(d.Pos()).Name())) + "." + name
}

// outside drops the found nodes that lie inside one of the named
// function declarations of f (see declName).
func outside(fset *token.FileSet, f *ast.File, found []ast.Node, funcs ...string) []ast.Node {
	for _, decl := range f.Decls {
		if d, ok := decl.(*ast.FuncDecl); ok && slices.Contains(funcs, declName(fset, d)) {
			found = slices.DeleteFunc(found, func(n ast.Node) bool { return n.Pos() >= d.Pos() && n.End() <= d.End() })
		}
	}
	return found
}

// uncalledFuncs names (see declName) every function and method under
// internal/ whose name no non-test file of the module refers to,
// outside its own declaration. Names are matched without types, so a
// method shares its callers with every method of the same name.
func uncalledFuncs(fset *token.FileSet, module map[string][]*ast.File) map[string]bool {
	declared := map[*ast.Ident]bool{}
	for _, files := range module {
		for _, f := range files {
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok {
					declared[d.Name] = true
				}
			}
		}
	}
	referenced := map[string]bool{}
	for _, files := range module {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !declared[id] {
					referenced[id.Name] = true
				}
				return true
			})
		}
	}
	uncalled := map[string]bool{}
	for dir, files := range module {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok && !referenced[d.Name.Name] && d.Name.Name != "init" {
					uncalled[declName(fset, d)] = true
				}
			}
		}
	}
	return uncalled
}

// uncalledOutside finds the declarations of f that are uncalled and not
// on uncalledAllowed.
func uncalledOutside(fset *token.FileSet, f *ast.File, uncalled map[string]bool) []ast.Node {
	var found []ast.Node
	for _, decl := range f.Decls {
		if d, ok := decl.(*ast.FuncDecl); ok {
			if name := declName(fset, d); uncalled[name] && !slices.Contains(uncalledAllowed, name) {
				found = append(found, d.Name)
			}
		}
	}
	return found
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

// pkgSelectors finds references to the named members of the package
// at path, e.g. time.Now.
func pkgSelectors(f *ast.File, path string, names ...string) []ast.Node {
	pkg := importName(f, path)
	if pkg == "" {
		return nil
	}
	var found []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg && slices.Contains(names, sel.Sel.Name) {
				found = append(found, sel)
			}
		}
		return true
	})
	return found
}

// methodRefs finds selectors x.name with one of the given names,
// whatever x is.
func methodRefs(f *ast.File, names ...string) []ast.Node {
	var found []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && slices.Contains(names, sel.Sel.Name) {
			found = append(found, sel)
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

// keyedFields finds composite-literal elements keyed by one of the
// given field names: T{name: v}.
func keyedFields(f *ast.File, names ...string) []ast.Node {
	var found []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.CompositeLit); ok {
			for _, elt := range lit.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && slices.Contains(names, id.Name) {
						found = append(found, kv)
					}
				}
			}
		}
		return true
	})
	return found
}
