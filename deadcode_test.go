package maxnvm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// testOnlyAllowed lists the funcs and methods under internal/ that no
// non-test code reaches but that stay in production code, each with its
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

// unsetOptionAllowed lists the option fields that no non-test code sets
// (see unsetOptions) but that stay settable, each with its reason. A key is "pkg.Type.Field", or "pkg.Type" for every field of the
// type. An entry that exempts nothing fails the test.
var unsetOptionAllowed = map[string]string{
	"quant.ClusterOptions.SampleLimit": "the reference tests reach sampled k-means at 2000 weights",
	"quant.ClusterOptions.MaxIter":     "the reference tests reach sampled k-means at 2000 weights",
	"sparse.BitMaskOptions.IdxSync": "sparse.Encode sets both values from the format table (BitM and BitM+IdxSync); " +
		"callers outside the package choose a format, not the field",
	"sparse.BitMaskOptions.MaskBlockBits": "the IdxSync fuzz and reference tests sweep block sizes; " +
		"production uses the default",
	"crossbar.Config.ADCHeadroom":  "TestXbarGolden pins an ADC clipping case at headroom 0.25",
	"train.Config.BatchSize":       "TestGradientCheckFC takes one plain SGD step",
	"train.Config.LearningRate":    "TestGradientCheckFC takes one plain SGD step",
	"train.Config.Momentum":        "TestGradientCheckFC takes one plain SGD step",
	"supervise.Options.NamePrefix": "the tests' in-process supervisors name their workers apart",
	"supervise.Options.OnSpawn":    "the tests' in-process supervisors and the chaos hooks observe spawns",
	"supervise.Options.OnExit":     "the tests' in-process supervisors and the chaos hooks observe exits",
	"chaos.ScheduleOptions":        "test-support package: the chaos and supervision soak tests draw their fault schedules with it",
	"nvdla.Config": "the Table 3 hardware presets NVDLA64 and NVDLA1024 describe the accelerators; " +
		"their fields are set once there and are not options",
	"crossbar.Config.BPC": "TestXbarGolden pins a write-DAC snap case at BPC 2 (its grid's cfg 1), " +
		"so folding it to the ideal analog write moves a golden",
	"train.SynthConfig.H":    "the ares LeNet5 tests synthesize 28x28 inputs",
	"train.SynthConfig.W":    "the ares LeNet5 tests synthesize 28x28 inputs",
	"serve.Options.Registry": "lets a test substitute a fake: the serve soak test reads a private registry",
	"fleet.MergeOptions.FS": "lets a test substitute a fake: RunLocal forwards its workers' filesystem, " +
		"which only tests replace, to its merge",
	"fleet.MergeOptions.Metrics": "lets a test substitute a fake: the fleet tests merge into a private registry",
	"fleet.WorkerOptions.FS": "lets a test substitute a fake: TestCrashBetweenClaimAndFirstRecord crashes a worker " +
		"through a fault-injecting filesystem",
	"supervise.Options.FS":      "lets a test substitute a fake: the chaos soak probes leases through a fault-injecting filesystem",
	"supervise.Options.Metrics": "lets a test substitute a fake: the supervisor and chaos tests count restarts in a private registry",
}

// repo is this module and the perfbench module, type-checked once for
// both guards.
var repo struct {
	once sync.Once
	m    *module
	err  error
}

func loadRepo(t *testing.T) *module {
	t.Helper()
	repo.once.Do(func() { repo.m, repo.err = loadModule(".", "perfbench") })
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.m
}

// TestNoTestOnlyExports fails when a func or method under internal/,
// exported or not, is reached by no non-test code: production code that
// only tests call belongs in the tests that use it, or nowhere. The
// check is by types.Object, so a dead declaration cannot hide behind a
// live one of the same name.
func TestNoTestOnlyExports(t *testing.T) {
	checkAllowed(t, deadFuncs(loadRepo(t)), testOnlyAllowed,
		"%s is reached only from tests: move it into the test that uses it, delete it, or allow-list it with a reason")
}

// TestNoUnsetOptions fails when an exported, untagged field of an
// exported Options or Config struct under internal/ is set by no
// non-test code: its default is the only value in use and belongs in a
// constant.
func TestNoUnsetOptions(t *testing.T) {
	checkAllowed(t, unsetOptions(loadRepo(t)), unsetOptionAllowed,
		"option %s is set by no non-test code: fold it into the constant its default applies, or allow-list it with a reason")
}

// TestDeadCodeFixture runs the guard over testdata/deadcode, whose dead
// method and unset option each share their name with a live one, and
// checks that a module the guard cannot load fails it rather than
// passing as clean.
func TestDeadCodeFixture(t *testing.T) {
	m, err := loadModule("testdata/deadcode")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, h := range append(deadFuncs(m), unsetOptions(m)...) {
		got = append(got, h.key)
	}
	if want := []string{"a.T.Len", "a.Options.Depth"}; !slices.Equal(got, want) {
		t.Errorf("fixture hits = %q, want %q", got, want)
	}

	broken := t.TempDir()
	if _, err := loadModule(broken); err == nil {
		t.Error("a directory without packages loaded without error")
	}
	writeFile(t, filepath.Join(broken, "go.mod"), "module broken\n\ngo 1.22\n")
	if _, err := loadModule(broken); err == nil {
		t.Error("a module without packages loaded without error")
	}
	writeFile(t, filepath.Join(broken, "internal", "b", "b.go"), "package b\n\nfunc F() int { return \"x\" }\n")
	if _, err := loadModule(broken); err == nil || !strings.Contains(err.Error(), "b.go") {
		t.Errorf("a module that does not type-check: err = %v, want a type error in b.go", err)
	}
}

func writeFile(t *testing.T, path, data string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// hit is one declaration the guard flags: key names it
// ("pkg.Recv.Method", "pkg.Type.Field"), group is the allow-list key
// that exempts its whole package or type, pos is where it is declared.
type hit struct{ key, group, pos string }

// checkAllowed reports every hit that allowed does not exempt, and
// every allow-list entry that exempts nothing.
func checkAllowed(t *testing.T, hits []hit, allowed map[string]string, format string) {
	t.Helper()
	exempted := map[string]bool{}
	for _, h := range hits {
		switch {
		case allowed[h.key] != "":
			exempted[h.key] = true
		case allowed[h.group] != "":
			exempted[h.group] = true
		default:
			t.Errorf(format, h.key+" ("+h.pos+")")
		}
	}
	for key := range allowed {
		if !exempted[key] {
			t.Errorf("allow-list entry %s exempts nothing: remove it", key)
		}
	}
}

// listedPkg is the part of `go list -json` output the loader reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Standard   bool
	Export     string
}

// checkedPkg is one type-checked package of the module; dir is its
// slash-separated directory relative to the module root.
type checkedPkg struct {
	dir   string
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// module is a type-checked module: its non-test files in dependency
// order, plus the standard-library interfaces of stdInterfaces.
type module struct {
	fset *token.FileSet
	pkgs []*checkedPkg
	std  []*types.Func // the methods of the stdInterfaces
}

// stdInterfaces declares the standard-library interfaces whose methods
// the standard library calls on a module value without the module
// naming the method: fmt prints Stringers and errors, errors unwraps,
// encoding/json marshals, net/http serves, sort and container/heap
// order, io copies, flag sets values.
const stdInterfaces = `package std

import (
	"container/heap"
	"encoding"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
)

type (
	_ fmt.Stringer
	_ fmt.GoStringer
	_ fmt.Formatter
	_ error
	_ interface{ Unwrap() error }
	_ interface{ Unwrap() []error }
	_ interface{ Is(error) bool }
	_ interface{ As(any) bool }
	_ json.Marshaler
	_ json.Unmarshaler
	_ encoding.TextMarshaler
	_ encoding.TextUnmarshaler
	_ http.Handler
	_ sort.Interface
	_ heap.Interface
	_ io.Reader
	_ io.Writer
	_ io.Closer
	_ flag.Value
)
`

// loadModule type-checks the non-test Go files of the module rooted at
// root and of the nested modules at the given subdirectories, which
// `go list -deps` orders; the standard library is read from the
// compiler's export data (`go list -export`). It fails when go list
// finds no package, reports a package error, or a file does not
// type-check.
func loadModule(root string, nested ...string) (*module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	var listed []listedPkg
	seen := map[string]bool{}
	for _, dir := range append([]string{"."}, nested...) {
		pkgs, err := goList(filepath.Join(root, dir), "-deps", "./...")
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if !p.Standard && !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				listed = append(listed, p)
			}
		}
	}
	if len(listed) == 0 {
		return nil, fmt.Errorf("go list found no packages under %s", root)
	}

	fset := token.NewFileSet()
	stdFile, err := parser.ParseFile(fset, "stdInterfaces", stdInterfaces, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	std := map[string]bool{}
	for _, p := range listed {
		for _, imp := range p.Imports {
			std[imp] = !seen[imp]
		}
	}
	for _, imp := range stdFile.Imports {
		std[strings.Trim(imp.Path.Value, `"`)] = true
	}
	args := []string{"-export"}
	for p, isStd := range std {
		if isStd && p != "unsafe" {
			args = append(args, p)
		}
	}
	pkgs, err := goList(root, args...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	imp := &moduleImporter{
		mod: map[string]*types.Package{},
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if exports[path] == "" {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(exports[path])
		}),
	}

	m := &module{fset: fset}
	for _, p := range listed {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		imp.mod[p.ImportPath] = pkg
		rel, err := filepath.Rel(root, p.Dir)
		if err != nil {
			return nil, err
		}
		m.pkgs = append(m.pkgs, &checkedPkg{filepath.ToSlash(rel), pkg, files, info})
	}

	stdInfo := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := (&types.Config{Importer: imp}).Check("std", fset, []*ast.File{stdFile}, stdInfo); err != nil {
		return nil, err
	}
	for _, s := range stdFile.Decls[1].(*ast.GenDecl).Specs {
		iface := stdInfo.TypeOf(s.(*ast.TypeSpec).Type).Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			m.std = append(m.std, iface.Method(i))
		}
	}
	return m, nil
}

// goList runs `go list -json args...` in dir with the module flags
// `make vet-perfbench` uses and decodes the packages it prints; a
// package error fails the command.
func goList(dir string, args ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// moduleImporter hands out the module's own packages as they are
// type-checked from source, so every package shares one object per
// declaration, and reads everything else from export data.
type moduleImporter struct {
	mod map[string]*types.Package
	std types.Importer
}

func (i *moduleImporter) Import(path string) (*types.Package, error) {
	if p := i.mod[path]; p != nil {
		return p, nil
	}
	return i.std.Import(path)
}

// internal reports whether a package directory is under internal/.
func internal(dir string) bool { return strings.HasPrefix(dir, "internal/") }

// deadFuncs returns the package-level funcs, methods and interface
// methods declared under internal/ that no non-test code reaches. A
// func is reached when something other than its own body names it. A
// method is also reached when its receiver type implements an interface
// whose method of that name the module calls, or a standard-library
// interface of stdInterfaces.
func deadFuncs(m *module) []hit {
	used := map[*types.Func]bool{}
	var ifaceCalls []*types.Func // called interface methods
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := p.info.Uses[id].(*types.Func)
					if !ok || fn == self {
						return true
					}
					fn = fn.Origin()
					if recv := recvType(fn); !used[fn] && recv != nil && types.IsInterface(recv) {
						ifaceCalls = append(ifaceCalls, fn)
					}
					used[fn] = true
					return true
				})
			}
		}
	}
	ifaceCalls = append(ifaceCalls, m.std...)
	implemented := func(fn *types.Func) bool {
		recv := recvType(fn)
		for _, call := range ifaceCalls {
			if call.Name() != fn.Name() {
				continue
			}
			iface := recvType(call).Underlying().(*types.Interface)
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
		return false
	}

	var hits []hit
	for _, p := range m.pkgs {
		if !internal(p.dir) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				var fns []*ast.Ident
				switch d := d.(type) {
				case *ast.FuncDecl:
					fns = append(fns, d.Name)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							if it, ok := ts.Type.(*ast.InterfaceType); ok {
								for _, fl := range it.Methods.List {
									fns = append(fns, fl.Names...)
								}
							}
						}
					}
				}
				for _, id := range fns {
					fn := p.info.Defs[id].(*types.Func)
					if used[fn] || fn.Name() == "init" || fn.Name() == "_" {
						continue
					}
					key := p.pkg.Name() + "."
					if recv := recvType(fn); recv != nil {
						if implemented(fn) {
							continue
						}
						key += types.TypeString(recv, func(*types.Package) string { return "" }) + "."
					}
					hits = append(hits, hit{key + fn.Name(), p.dir, m.pos(id)})
				}
			}
		}
	}
	return hits
}

// recvType is a method's receiver type without its pointer, or nil for
// a plain func.
func recvType(fn *types.Func) types.Type {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	if ptr, ok := recv.Type().(*types.Pointer); ok {
		return ptr.Elem()
	}
	return recv.Type()
}

// unsetOptions returns the exported, untagged fields of the exported
// *Options and *Config structs under internal/ that no non-test code
// writes. Tagged fields are left out, since decoding sets them. A write
// is a keyed or positional composite-literal element, an assignment or
// inc/dec target, or an address taken. Outside the field's package any
// write counts; inside it, only one that stores a parameter of the
// enclosing func unchanged, as a setter does for its caller (a default
// fill such as `o.Registry = telemetry.Default()` sets nothing for a
// caller).
func unsetOptions(m *module) []hit {
	set := map[*types.Var]bool{}
	for _, p := range m.pkgs {
		params := map[types.Object]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if ft, ok := n.(*ast.FuncType); ok {
					for _, fl := range ft.Params.List {
						for _, id := range fl.Names {
							if obj := p.info.Defs[id]; obj != nil {
								params[obj] = true
							}
						}
					}
				}
				return true
			})
		}
		write := func(field types.Object, value ast.Expr) {
			v, ok := field.(*types.Var)
			if !ok || !v.IsField() {
				return
			}
			v = v.Origin()
			if id, ok := value.(*ast.Ident); v.Pkg() != p.pkg || ok && params[p.info.Uses[id]] {
				set[v] = true
			}
		}
		selected := func(e ast.Expr) types.Object {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				return p.info.Uses[sel.Sel]
			}
			return nil
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := p.info.TypeOf(n)
					if ptr, ok := typ.(*types.Pointer); ok {
						typ = ptr.Elem()
					}
					st, isStruct := typ.Underlying().(*types.Struct)
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								write(p.info.Uses[key], kv.Value)
							}
						} else if isStruct {
							write(st.Field(i), elt)
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						var value ast.Expr
						if len(n.Rhs) == len(n.Lhs) {
							value = n.Rhs[i]
						}
						write(selected(lhs), value)
					}
				case *ast.IncDecStmt:
					write(selected(n.X), nil)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(selected(n.X), nil)
					}
				}
				return true
			})
		}
	}

	var hits []hit
	for _, p := range m.pkgs {
		if !internal(p.dir) {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
					return false
				}
				typ := p.pkg.Name() + "." + name
				for _, fl := range st.Fields.List {
					if fl.Tag != nil {
						continue
					}
					for _, id := range fl.Names {
						if id.IsExported() && !set[p.info.Defs[id].(*types.Var)] {
							hits = append(hits, hit{typ + "." + id.Name, typ, m.pos(id)})
						}
					}
				}
				return false
			})
		}
	}
	return hits
}

// pos is a declaration's file:line, relative to the working directory
// when it can be.
func (m *module) pos(id *ast.Ident) string {
	p := m.fset.Position(id.Pos())
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, p.Filename); err == nil {
			p.Filename = rel
		}
	}
	return p.Filename + ":" + strconv.Itoa(p.Line)
}
