package maxnvm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are method names that standard-library interfaces
// (fmt.Stringer, error, json.Marshaler, http.Handler, sort.Interface,
// io.Reader/Writer/Closer, flag.Value, heap.Interface, ...) call on a
// value without naming it in this module's source.
var interfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "Set": true,
}

// testOnlyAllowed lists the exported functions under internal/ that no
// non-test file names but that stay in production code, each with its
// reason. A key is a package directory ("internal/chaos": the whole
// package) or "pkg.Recv.Method" / "pkg.Func". An entry that exempts
// nothing fails the test, so the list cannot outlive its reasons.
var testOnlyAllowed = map[string]string{
	"internal/chaos": "test-support package: its injector drives the supervision soak from tests",
	"internal/errfs": "test-support package: fault-injecting filesystem for durability tests",
	"bitstream.Array.Bit": "range-checked single-bit read that cross-package tests use; " +
		"GetBits has no per-bit bounds check",
	"bitstream.Array.SetBit": "range-checked single-bit write that cross-package tests use; " +
		"SetBits has no per-bit bounds check",
	"bitstream.Array.PopCount": "cross-package tests count set bits of encoded streams with it",
	"bitstream.Array.DiffBits": "cross-package tests (envm, ares) count the bits a fault or a recode changed with it",
	"quant.Clustered.Sparsity": "cross-package tests (core, ares) check a layer's pruning target through it",
	"telemetry.Timer.Hist":     "tests read a timer's histogram through it to check recorded durations",
}

// TestNoTestOnlyExports fails when an exported function or method
// declared under internal/ is named nowhere in the module's non-test
// source except at its own declaration: production code that only
// tests call belongs in the tests that use it, or nowhere. The scan is
// by name, so it can miss a dead function that shares its name with a
// live one, but it never flags a name that something calls.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ key, dir, pos string }
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		declared := map[*ast.Ident]bool{}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !fn.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			key := filepath.Base(dir) + "."
			if fn.Recv != nil {
				key += recvName(fn.Recv.List[0].Type) + "."
			}
			decls = append(decls, decl{key + fn.Name.Name, dir, fset.Position(fn.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	exempted := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if used[name] || interfaceMethods[name] {
			continue
		}
		if testOnlyAllowed[d.key] != "" {
			exempted[d.key] = true
			continue
		}
		if testOnlyAllowed[d.dir] != "" {
			exempted[d.dir] = true
			continue
		}
		unused = append(unused, d.key+" ("+d.pos+")")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported %s is called only from tests: move it into the test that uses it, delete it, or allow-list it with a reason", u)
	}
	for key := range testOnlyAllowed {
		if !exempted[key] {
			t.Errorf("allow-list entry %s exempts nothing: remove it", key)
		}
	}
}

// recvName is the type name of a method receiver, T for T and *T.
func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
