package disc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// keptWithoutCaller lists the exported functions and methods under
// internal/ that no non-test file names yet, each with the reason it stays.
// TestInternalExportsHaveCallers fails on an entry that gains a caller or
// goes away, so the table shrinks as the work it waits for lands. Two more
// stay for the same reasons but share their names with live methods, so
// only a type-aware scan sees them: fault.Reset (the failpoint API) and
// obs.TraceRing.Snapshot (ROADMAP item 7's trace join).
var keptWithoutCaller = map[string]string{
	"fault.SetHook": "failpoint API: tests arm the production fault sites through it",
	"fault.Active":  "failpoint API: tests read which sites are armed",
	"fault.Fires":   "failpoint API: tests count how often a site fired",

	"client.Client.InsertTuple": "ROADMAP item 3: the coordinator's /tuples routes will call it",
	"client.Client.DeleteTuple": "ROADMAP item 3: the coordinator's /tuples routes will call it",
	"data.GenLattice":           "perfbench/README.md names it; only a change to the benchmark may edit that file",
}

// interfaceMethods are method names that satisfy an interface the standard
// library calls by itself (fmt, errors, sort, container/heap, encoding,
// net/http, io, log/slog, flag), so no file of this module needs to name
// them.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true, "Format": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Header": true, "Write": true, "WriteHeader": true, "Flush": true,
	"Read": true, "Close": true,
	"Enabled": true, "Handle": true, "WithAttrs": true, "WithGroup": true, "LogValue": true,
	"Set": true, "Get": true,
}

// TestInternalExportsHaveCallers keeps production packages to what
// production calls. It parses every .go file of the module, perfbench/
// included, and fails when an exported function or method declared in a
// non-test, non-main file under internal/ is named in no non-test file,
// unless keptWithoutCaller gives it a reason. Test-support packages (a
// name ending in "test", as net/http/httptest) hold code for tests only:
// the scan skips their declarations and fails when a non-test file
// imports one.
//
// The check is by name, not by type: a dead method whose name another
// type's live method also uses passes unseen (Normal.Quantile beside
// HistogramSnapshot.Quantile was one), and so does a function whose name
// a field or variable elsewhere shares.
func TestInternalExportsHaveCallers(t *testing.T) {
	type declared struct {
		key string // pkg.Func or pkg.Type.Method
		pos token.Position
	}
	var decls []declared
	named := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
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
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, "repro/internal/") && strings.HasSuffix(p, "test") {
				t.Errorf("%s imports the test-support package %s", path, p)
			}
		}
		pkg := f.Name.Name
		scanned := strings.HasPrefix(filepath.ToSlash(path), "internal/") && pkg != "main" && !strings.HasSuffix(pkg, "test")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if scanned && n.Name.IsExported() && (n.Recv == nil || !interfaceMethods[n.Name.Name]) {
					key := pkg + "." + n.Name.Name
					if n.Recv != nil {
						key = pkg + "." + receiverName(n.Recv.List[0].Type) + "." + n.Name.Name
					}
					decls = append(decls, declared{key, fset.Position(n.Pos())})
				}
				// The declaration's own name is not a use; its body is.
				if n.Recv != nil {
					ast.Inspect(n.Recv, func(m ast.Node) bool { return markNamed(named, m) })
				}
				ast.Inspect(n.Type, func(m ast.Node) bool { return markNamed(named, m) })
				if n.Body != nil {
					ast.Inspect(n.Body, func(m ast.Node) bool { return markNamed(named, m) })
				}
				return false
			}
			return markNamed(named, n)
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	var unnamed []string
	for _, d := range decls {
		seen[d.key] = true
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		switch _, kept := keptWithoutCaller[d.key]; {
		case !named[name] && !kept:
			unnamed = append(unnamed, d.pos.String()+": "+d.key)
		case named[name] && kept:
			t.Errorf("%s: %s is kept without a caller, but a non-test file names it now: drop it from keptWithoutCaller", d.pos, d.key)
		}
	}
	for _, u := range unnamed { // WalkDir's lexical order: by file, then line
		t.Errorf("%s is named in no non-test file: delete it, or move it into a _test.go file of its package", u)
	}
	for key := range keptWithoutCaller {
		if !seen[key] {
			t.Errorf("keptWithoutCaller lists %s, which no non-test file under internal/ declares: drop the entry", key)
		}
	}
}

// markNamed records every identifier n holds as a use of that name.
func markNamed(named map[string]bool, n ast.Node) bool {
	if id, ok := n.(*ast.Ident); ok {
		named[id.Name] = true
	}
	return true
}

// receiverName is the type name of a method receiver: T from T, *T, T[P]
// or *T[P].
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
