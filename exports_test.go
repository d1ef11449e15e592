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
	walkModule(t, func(fset *token.FileSet, dir string, f *ast.File, declared map[*ast.Ident]bool) {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
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
	})
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

// walkModule parses every non-test .go file of the module (cmd/,
// examples/, perfbench/, internal/ and the root; not testdata or hidden
// directories) and calls visit with the file's slash-separated directory
// and the identifiers that name the file's own function declarations.
func walkModule(t *testing.T, visit func(fset *token.FileSet, dir string, f *ast.File, declared map[*ast.Ident]bool)) {
	t.Helper()
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
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				declared[fn.Name] = true
			}
		}
		visit(fset, filepath.ToSlash(filepath.Dir(path)), f, declared)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// unsetOptionAllowed lists the option fields that no non-test code
// outside their own package sets but that stay settable, each with its
// reason. A key is "pkg.Type.Field", or "pkg.Type" for every field of the
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
}

// TestNoUnsetOptions fails when an exported, untagged field of an
// exported Options or Config struct under internal/ is named by no
// non-test file outside its own package: no production caller sets it,
// so its default is the only value in use and belongs in a constant.
// Tagged fields are left out, since decoding sets them. The scan is by
// name, so it cannot flag a field that shares its name with a live one
// elsewhere: train.SynthConfig.H and W, which only tests set, escape it
// that way, as nvsim.Config.DataWidth (beside nvsim.Result.DataWidth)
// and SynthConfig.Classes (beside train.Dataset.Classes) did.
func TestNoUnsetOptions(t *testing.T) {
	type field struct{ key, typ, dir, pos string }
	var fields []field
	usedIn := map[string]map[string]bool{} // name -> directories naming it
	walkModule(t, func(fset *token.FileSet, dir string, f *ast.File, declared map[*ast.Ident]bool) {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fl := range st.Fields.List {
				for _, id := range fl.Names {
					declared[id] = true
				}
			}
			return true
		})
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			for _, sp := range gd.Specs {
				ts := sp.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
					continue
				}
				typ := filepath.Base(dir) + "." + name
				for _, fl := range st.Fields.List {
					if fl.Tag != nil {
						continue
					}
					for _, id := range fl.Names {
						if id.IsExported() {
							fields = append(fields, field{typ + "." + id.Name, typ, dir, fset.Position(id.Pos()).String()})
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				if usedIn[id.Name] == nil {
					usedIn[id.Name] = map[string]bool{}
				}
				usedIn[id.Name][dir] = true
			}
			return true
		})
	})
	var unset []string
	exempted := map[string]bool{}
	for _, fd := range fields {
		name := fd.key[strings.LastIndex(fd.key, ".")+1:]
		setOutside := false
		for dir := range usedIn[name] {
			if dir != fd.dir {
				setOutside = true
			}
		}
		switch {
		case setOutside:
		case unsetOptionAllowed[fd.key] != "":
			exempted[fd.key] = true
		case unsetOptionAllowed[fd.typ] != "":
			exempted[fd.typ] = true
		default:
			unset = append(unset, fd.key+" ("+fd.pos+")")
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("option %s is set by no non-test code outside its package: fold it into the constant its default applies, or allow-list it with a reason", u)
	}
	for key := range unsetOptionAllowed {
		if !exempted[key] {
			t.Errorf("allow-list entry %s exempts nothing: remove it", key)
		}
	}
}
