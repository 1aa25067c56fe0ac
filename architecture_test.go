package rgb

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestArchitectureRules checks, by parsing the non-test Go files under
// internal/ and type-checking the module, rules the documentation
// states as prose. Each row quotes the sentence it enforces. A row's
// packages and allowlist are the test's data: shrinking an allowlist is
// progress, growing one is a reviewed diff.
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
	wallTimers := map[string]int{"internal/runtime/live.go": 2}
	wallReads := map[string]int{
		"internal/runtime/live.go": 2, "internal/runtime/net.go": 4,
		"internal/discovery/table.go": 1, "internal/discovery/tmpmap.go": 2,
		"internal/telemetry/telemetry.go": 1, "internal/chaos/chaos.go": 4, "internal/experiment/experiment.go": 2,
	}
	info, rgb := typecheck(t, fset, module)
	uncalled := uncalledFuncs(fset, module, info, rgb)
	rows := []struct {
		rule  string   // where the rule is stated, and the sentence
		pkgs  []string // the packages it covers; nil is every one under internal/
		allow []string // packages exempt from it
		check func(f *ast.File) []ast.Node
	}{
		{
			rule: `docs/ARCHITECTURE.md, determinism rule 2: "No time.Now() (except wall-clock reporting)" and "Under internal/, the wall clock is read only by the live runtime, discovery, telemetry, the chaos harness and the sweeper's WallTime, each file a fixed number of times"`,
			check: func(f *ast.File) []ast.Node {
				if found := pkgSelectors(f, "time", "Now", "Since", "Until"); len(found) > wallReads[path(f)] {
					return found
				}
				return nil
			},
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
			rule: `docs/ARCHITECTURE.md, Layer 2, the socket: "One function writes to the socket: datagram.write, for the protocol's frames and discovery's alike."`,
			check: func(f *ast.File) []ast.Node {
				return outside(fset, f, methodRefs(f, "WriteToUDPAddrPort"), "internal/runtime.datagram.write")
			},
		},
		{
			rule: `docs/ARCHITECTURE.md, determinism rule 1: "Wall-clock timers run only the live runtime's tick and alarm"`,
			check: func(f *ast.File) []ast.Node {
				if found := pkgSelectors(f, "time", "AfterFunc", "NewTimer", "NewTicker"); len(found) > wallTimers[path(f)] {
					return found
				}
				return nil
			},
		},
		{
			rule: `docs/ARCHITECTURE.md, Layer 3, member versions: "Versions are compared only by ids.VerAfter"`,
			check: func(f *ast.File) []ast.Node {
				return outside(fset, f, verOrderings(f, info), "internal/ids.VerAfter")
			},
		},
		{
			rule: `docs/ARCHITECTURE.md, Layer 3, member versions: "Node.gone is written only by Node.bury"`,
			pkgs: []string{"internal/core"},
			check: func(f *ast.File) []ast.Node {
				return outside(fset, f, append(fieldWrites(f, "gone"), methodUses(f, info, "internal/ids", "Tombstones", "Bury")...), "internal/core.Node.bury")
			},
		},
		{
			rule:  `ROADMAP.md, item 18: "production code nothing calls goes"; a function only tests reach is on uncalledAllowed`,
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
	for _, name := range slices.Sorted(maps.Keys(uncalledAllowed)) {
		if !uncalled[name] {
			t.Errorf("%s is on uncalledAllowed but is gone or reached by non-test code now: take it off the list", name)
		}
	}
}

// uncalledAllowed lists the functions and methods under internal/ that
// non-test code does not reach (see uncalledFuncs), each with the tests
// of another package that need it. A new one fails TestArchitectureRules
// until it is deleted, moved into its package's tests, or added here.
var uncalledAllowed = map[string]string{
	"internal/discovery.TmpMap.Len":     "runtime's dedup tests bound the duplicate filter's size",
	"internal/mathx.AlmostEqual":        "analytic's formula tests compare floats with it",
	"internal/simnet.Network.SetTrace":  "core's digest and round tests trace every message",
	"internal/simnet.SimRuntime.Kernel": "core's digest and resend tests read the simulated clock and event count",
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

// modulePath is the import path of the module's root package.
const modulePath = "github.com/rgbproto/rgb"

// typecheck type-checks the parsed packages of the module, benchmark/
// included, and returns what their files use and define, with package
// rgb. The standard library is imported from the export data one go
// list run builds: x/tools is not a dependency.
func typecheck(t *testing.T, fset *token.FileSet, module map[string][]*ast.File) (*types.Info, *types.Package) {
	t.Helper()
	std := map[string]bool{}
	for _, files := range module {
		for _, f := range files {
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p != modulePath && !strings.HasPrefix(p, modulePath+"/") {
					std[p] = true
				}
			}
		}
	}
	out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}, slices.Sorted(maps.Keys(std))...)...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		exports[path] = file
	}
	stdlib := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	checked := map[string]*types.Package{}
	var check func(dir string) *types.Package
	conf := types.Config{
		Error: func(err error) { t.Error(err) },
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if path == modulePath {
				return check("."), nil
			}
			if dir, ok := strings.CutPrefix(path, modulePath+"/"); ok {
				return check(dir), nil
			}
			return stdlib.Import(path)
		}),
	}
	check = func(dir string) *types.Package {
		if checked[dir] == nil {
			path := modulePath
			if dir != "." {
				path += "/" + dir
			}
			checked[dir], _ = conf.Check(path, fset, module[dir], info)
		}
		return checked[dir]
	}
	for _, dir := range slices.Sorted(maps.Keys(module)) {
		check(dir)
	}
	return info, checked["."]
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// uncalledFuncs names (see declName) every function and method under
// internal/ that non-test code does not reach. A function is reached
// when a non-test file uses it (an instance of a generic one counts for
// its origin), when it implements a method of an interface non-test
// code declares or uses (String and Error always count: fmt and errors
// call them), or when it is on package rgb's public surface.
func uncalledFuncs(fset *token.FileSet, module map[string][]*ast.File, info *types.Info, rgb *types.Package) map[string]bool {
	reached := map[*types.Func]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			reached[fn.Origin()] = true
		}
	}

	// The interfaces non-test code declares or uses, by method name,
	// with error and fmt.Stringer: fmt and errors call their methods on
	// any value.
	stringer := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Typ[types.String])), false))}, nil)
	ifaces := map[string][]*types.Interface{}
	seen := map[types.Type]bool{}
	var collect func(typ types.Type)
	collect = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		if iface, ok := typ.Underlying().(*types.Interface); ok {
			for m := range iface.Methods() {
				ifaces[m.Name()] = append(ifaces[m.Name()], iface)
			}
		}
		for _, c := range components(typ) {
			collect(c)
		}
	}
	collect(types.Universe.Lookup("error").Type())
	collect(stringer)
	for _, tv := range info.Types {
		collect(tv.Type)
	}
	for _, obj := range info.Defs {
		if obj != nil {
			collect(obj.Type())
		}
	}
	implements := func(fn *types.Func) bool {
		recv := fn.Signature().Recv()
		if recv == nil {
			return false
		}
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		for _, iface := range ifaces[fn.Name()] {
			if types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface) {
				return true
			}
		}
		return false
	}

	// Package rgb's public surface: the closure of its exported
	// declarations through alias targets, exported fields, and the
	// parameters and results of exported methods.
	exposed := map[types.Type]bool{}
	var expose func(typ types.Type)
	expose = func(typ types.Type) {
		typ = types.Unalias(typ)
		if exposed[typ] {
			return
		}
		exposed[typ] = true
		if named, ok := typ.(*types.Named); ok {
			recv := typ
			if !types.IsInterface(typ) {
				recv = types.NewPointer(typ)
			}
			for sel := range types.NewMethodSet(recv).Methods() {
				if fn := sel.Obj().(*types.Func); fn.Exported() {
					reached[fn.Origin()] = true
					expose(fn.Type())
				}
			}
			for arg := range named.TypeArgs().Types() {
				expose(arg)
			}
		}
		if st, ok := typ.Underlying().(*types.Struct); ok {
			for f := range st.Fields() {
				if f.Exported() || f.Embedded() {
					expose(f.Type())
				}
			}
		}
		for _, c := range components(typ) {
			expose(c)
		}
	}
	for _, name := range rgb.Scope().Names() {
		if obj := rgb.Scope().Lookup(name); obj.Exported() {
			expose(obj.Type())
		}
	}

	uncalled := map[string]bool{}
	for dir, files := range module {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok && d.Name.Name != "init" {
					if fn := info.Defs[d.Name].(*types.Func); !reached[fn] && !implements(fn) {
						uncalled[declName(fset, d)] = true
					}
				}
			}
		}
	}
	return uncalled
}

// components returns the types a composite type is built from: the
// element of a pointer, slice, array or channel, a map's key and
// element, a signature's parameters and results, a tuple's members.
func components(typ types.Type) []types.Type {
	switch u := typ.Underlying().(type) {
	case *types.Map:
		return []types.Type{u.Key(), u.Elem()}
	case interface{ Elem() types.Type }:
		return []types.Type{u.Elem()}
	case *types.Signature:
		return []types.Type{u.Params(), u.Results()}
	case *types.Tuple:
		var out []types.Type
		for v := range u.Variables() {
			out = append(out, v.Type())
		}
		return out
	}
	return nil
}

// uncalledOutside finds the declarations of f that are uncalled and not
// on uncalledAllowed.
func uncalledOutside(fset *token.FileSet, f *ast.File, uncalled map[string]bool) []ast.Node {
	var found []ast.Node
	for _, decl := range f.Decls {
		if d, ok := decl.(*ast.FuncDecl); ok {
			if name := declName(fset, d); uncalled[name] && uncalledAllowed[name] == "" {
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

// methodUses finds the uses of one method of a type the module declares
// in package pkg (a module-relative path), a call or a method value
// alike, whether the receiver is the value or a pointer to it.
func methodUses(f *ast.File, info *types.Info, pkg, typ, method string) []ast.Node {
	var found []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != modulePath+"/"+pkg {
			return true
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Name() == typ {
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
// x.name++, copy(x.name, src) and delete(x.name, k).
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
			if id, ok := s.Fun.(*ast.Ident); ok && (id.Name == "copy" || id.Name == "delete") && len(s.Args) == 2 && named(s.Args[0]) {
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

// verOrderings finds the ordering comparisons (<, >, <=, >=) that take a
// member version, the Ver field of ids.MemberInfo or wire.Tombstone, as
// an operand, directly or through a conversion.
func verOrderings(f *ast.File, info *types.Info) []ast.Node {
	isVer := func(e ast.Expr) bool {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.CallExpr:
				if len(x.Args) != 1 || !info.Types[x.Fun].IsType() {
					return false
				}
				e = x.Args[0]
			case *ast.SelectorExpr:
				v, ok := info.Uses[x.Sel].(*types.Var)
				return ok && v.IsField() && v.Name() == "Ver" && v.Pkg() != nil &&
					(v.Pkg().Path() == modulePath+"/internal/ids" || v.Pkg().Path() == modulePath+"/internal/wire")
			default:
				return false
			}
		}
	}
	var found []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok {
			switch b.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				if isVer(b.X) || isVer(b.Y) {
					found = append(found, b)
				}
			}
		}
		return true
	})
	return found
}
