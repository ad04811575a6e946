package gradsync_test

// The test-only surface guard. An exported identifier of an internal/
// package that only tests reach is production code nothing runs: a knob,
// a second implementation or a helper that drifts from the path the
// simulator takes. This test parses the module with go/parser and go/ast
// only (like cmd/mdlint, no type checker) and fails on each such
// declaration, naming file:line:
//
//   - an exported function, type, var or const of an internal/ package
//     that no non-test file references outside its own declaration;
//   - an exported method of an internal/ package whose name appears in no
//     non-test selector (so a method reached only through an interface
//     still counts as used).
//
// Every .go file is parsed whatever its build tags, perfbench/ included:
// the benchmark drives internal APIs, so its non-test files count as
// references. An identifier that a ROADMAP item or a cross-package test
// needs before production code calls it goes on surfaceAllow with the
// reason; an entry fails once its identifier is referenced or gone.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow names the unreferenced identifiers that stay, each with the
// ROADMAP item or the cross-package test that needs it. Keys are
// "pkg.Name" for package-level identifiers and "pkg.Type.Name" for
// methods, pkg being the directory under internal/.
var surfaceAllow = map[string]string{
	"analysis.Snapshot.CheckLegality": "ROADMAP legality item: E15/E16 check Definition 5.13 at every node",
	"analysis.Snapshot.MaxXi":         "ROADMAP legality item: the DFS oracle of the distance-transform differential",
	"analysis.LegalitySkewBound":      "ROADMAP legality item: Lemma 5.14's per-path bound for every pair",
	"analysis.StandardSeq":            "ROADMAP legality item: the gradient sequence the legality check runs against",
	"runner.Runtime.Algo":             "golden_test.go: goldenFingerprint reads the hosted algorithm's counters",
}

// maxSurfaceAllow caps the allowlist so it cannot become a second surface.
const maxSurfaceAllow = 8

func TestTestOnlySurface(t *testing.T) {
	if len(surfaceAllow) > maxSurfaceAllow {
		t.Fatalf("surfaceAllow has %d entries, at most %d allowed", len(surfaceAllow), maxSurfaceAllow)
	}
	problems, err := checkSurface(".", surfaceAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// surfaceDecl is one exported declaration of an internal/ package.
type surfaceDecl struct {
	id       string    // allowlist key
	dir      string    // package directory, slash-separated, relative to the root
	name     string    // declared name
	method   bool      // declared with a receiver
	pos      token.Pos // the name's position, for the report
	from, to token.Pos // the declaration's extent
}

// surfaceRef names the package-level identifier name of package dir.
type surfaceRef struct {
	dir  string
	name string
}

// checkSurface parses the module under root and returns one problem line
// per unreferenced exported declaration of an internal/ package that allow
// does not name, and one per allowlist entry with no reason or whose
// identifier is referenced or gone.
func checkSurface(root string, allow map[string]string) ([]string, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	type parsed struct {
		dir string
		f   *ast.File
	}
	var files []parsed
	pkgName := map[string]string{} // dir → package name of its non-test files
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
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
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		files = append(files, parsed{dir, f})
		pkgName[dir] = f.Name.Name
		return nil
	})
	if err != nil {
		return nil, err
	}

	var decls []surfaceDecl
	bare := map[surfaceRef][]token.Pos{} // same-package uses
	qualified := map[surfaceRef]bool{}   // pkg.Name uses from other packages
	selectors := map[string]bool{}       // every other selector name
	for _, p := range files {
		if p.dir == "internal" || strings.HasPrefix(p.dir, "internal/") {
			decls = append(decls, exportedDecls(p.dir, p.f)...)
		}
		imports := map[string]string{} // local name → directory
		for _, spec := range p.f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			dir := "."
			if path != modPath {
				rest, ok := strings.CutPrefix(path, modPath+"/")
				if !ok {
					continue
				}
				dir = rest
			}
			local := pkgName[dir]
			if local == "" {
				local = path[strings.LastIndex(path, "/")+1:]
			}
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = dir
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						qualified[surfaceRef{dir, n.Sel.Name}] = true
						return false
					}
				}
				selectors[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				key := surfaceRef{p.dir, n.Name}
				bare[key] = append(bare[key], n.Pos())
			}
			return true
		}
		ast.Inspect(p.f, visit)
	}

	var problems []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.id] = true
		used := false
		if d.method {
			used = selectors[d.name]
		} else {
			key := surfaceRef{d.dir, d.name}
			used = qualified[key]
			for _, pos := range bare[key] {
				if pos < d.from || pos >= d.to {
					used = true
					break
				}
			}
		}
		_, allowed := allow[d.id]
		switch {
		case allowed && used:
			problems = append(problems, fmt.Sprintf("surfaceAllow: %s is referenced now; delete its entry", d.id))
		case !allowed && !used:
			kind := "no non-test file references it"
			if d.method {
				kind = "its name appears in no non-test selector"
			}
			problems = append(problems, fmt.Sprintf("%s: exported %s: %s", fset.Position(d.pos), d.id, kind))
		}
	}
	for id, reason := range allow {
		if strings.TrimSpace(reason) == "" {
			problems = append(problems, fmt.Sprintf("surfaceAllow: %s has no reason", id))
		}
		if !declared[id] {
			problems = append(problems, fmt.Sprintf("surfaceAllow: %s is not declared; delete its entry", id))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// exportedDecls lists the exported declarations of one file of package dir.
func exportedDecls(dir string, f *ast.File) []surfaceDecl {
	pkg := strings.TrimPrefix(dir, "internal/")
	var out []surfaceDecl
	add := func(id string, name *ast.Ident, method bool, node ast.Node) {
		if name.IsExported() {
			out = append(out, surfaceDecl{id: id, dir: dir, name: name.Name, method: method,
				pos: name.Pos(), from: node.Pos(), to: node.End()})
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				add(pkg+"."+decl.Name.Name, decl.Name, false, decl)
				continue
			}
			add(pkg+"."+receiverName(decl.Recv.List[0].Type)+"."+decl.Name.Name, decl.Name, true, decl)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(pkg+"."+spec.Name.Name, spec.Name, false, spec)
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						add(pkg+"."+name.Name, name, false, spec)
					}
				}
			}
		}
	}
	return out
}

// receiverName strips pointers and type parameters from a receiver type.
func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}

// modulePath reads the module line of a go.mod file.
func modulePath(goMod string) (string, error) {
	f, err := os.Open(goMod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", goMod)
}

// TestSurfaceFixture runs checkSurface on a small module in a temp dir:
// a function only a _test.go file calls and a method no selector names
// are flagged; a method called only through an interface and a function
// only perfbench/ calls are not; and an allowlist entry fails when it has
// no reason, when its identifier is referenced, or when it is gone.
func TestSurfaceFixture(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fix\n\ngo 1.24\n",
		"internal/a/a.go": `package a

func OnlyTest() {}

func ForBench() {}

func Allowed() {}

func NoReason() {}

func Used() {}

type T struct{}

func (T) ViaIface() {}

func (T) Dead() {}
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestOnly(t *testing.T) { OnlyTest(); T{}.Dead() }
`,
		"cmd/app/main.go": `package main

import "fix/internal/a"

type viaIface interface{ ViaIface() }

func main() {
	var v viaIface = a.T{}
	v.ViaIface()
	a.Used()
}
`,
		"perfbench/main.go": `package main

import "fix/internal/a"

func main() { a.ForBench() }
`,
	}
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allow := map[string]string{
		"a.Allowed":  "a ROADMAP item needs it",
		"a.NoReason": " ",
		"a.Used":     "referenced since",
		"a.Gone":     "deleted since",
	}
	problems, err := checkSurface(root, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"exported a.OnlyTest: no non-test file references it",
		"exported a.T.Dead: its name appears in no non-test selector",
		"surfaceAllow: a.Gone is not declared",
		"surfaceAllow: a.NoReason has no reason",
		"surfaceAllow: a.Used is referenced now",
	}
	if len(problems) != len(want) {
		t.Fatalf("got %d problems, want %d:\n%s", len(problems), len(want), strings.Join(problems, "\n"))
	}
	for _, w := range want {
		found := false
		for _, p := range problems {
			found = found || strings.Contains(p, w)
		}
		if !found {
			t.Errorf("no problem mentions %q:\n%s", w, strings.Join(problems, "\n"))
		}
	}
	at := filepath.Join(root, "internal", "a", "a.go") + ":3:6: exported a.OnlyTest"
	found := false
	for _, p := range problems {
		found = found || strings.HasPrefix(p, at)
	}
	if !found {
		t.Errorf("no problem names %s:\n%s", at, strings.Join(problems, "\n"))
	}
}
