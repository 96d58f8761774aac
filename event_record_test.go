// One event record: a scheduler's observer hooks become events in one
// place, telemetry.AttachSched, and every other view of a run (the trace
// recorder included) is a sink of that stream. This guard fails when a
// second adapter or the old import direction comes back.
package repro

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// repoDeps adds to seen the import paths of the repo packages that the
// package in dir imports from its non-test files, directly or not.
func repoDeps(t *testing.T, dir string, seen map[string]bool) {
	t.Helper()
	pkg, err := build.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		rel, ok := strings.CutPrefix(imp, "repro/")
		if !ok || seen[imp] {
			continue
		}
		seen[imp] = true
		repoDeps(t, filepath.FromSlash(rel), seen)
	}
}

func TestOneEventRecord(t *testing.T) {
	deps := map[string]bool{}
	repoDeps(t, filepath.Join("internal", "telemetry"), deps)
	if deps["repro/internal/trace"] {
		t.Error("internal/telemetry imports internal/trace; the trace recorder is a sink of telemetry's stream, not the other way round")
	}

	// Only core defines an Observe method, so a call by that name is a
	// registration on a core.Sched or core.OS.
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" ||
				path == filepath.Join("internal", "core")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			allowed := path == filepath.Join("internal", "telemetry", "telemetry.go") &&
				fn.Recv == nil && fn.Name.Name == "AttachSched"
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Observe" && !allowed {
					t.Errorf("%s: %s registers a scheduler observer; attach a telemetry.Sink with telemetry.AttachSched instead",
						fset.Position(call.Pos()), fn.Name.Name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
