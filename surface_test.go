package gradsync_test

// The test-only surface guard. A declaration that only tests reach is
// production code nothing runs: a knob, a second implementation or a helper
// that drifts from the path the simulator takes. This test type-checks the
// non-test files of every package of the module with go/types, perfbench/
// included, once for the default build and once with -tags large, and fails
// on each such declaration, naming file:line:
//
//   - an exported function, type, var or const of an internal/ package, or
//     an unexported one of any package but perfbench/'s own, that no
//     non-test code uses outside its own declaration;
//   - an exported method of an internal/ package that no non-test code
//     uses, unless non-test code uses a module interface method of its
//     name, or an interface of an imported standard-library package
//     declares that name.
//
// A use is an identifier that go/types resolves to the declaration (the
// selector of a field or method selection included). Uses are keyed by the
// declaration's position, which the methods and fields of an instance of a
// generic type share with the generic declaration, so a call through an
// instantiation counts without mapping objects to their Origin. The type
// named in a method's receiver is not a use. perfbench/ drives internal
// APIs, so its non-test files count as uses. A declaration that a ROADMAP
// item or a cross-package test needs before production code uses it goes
// on surfaceAllow with the reason; an entry fails once its declaration is
// used or gone.
//
// The same index resolves the backticked `pkg.Name` and `pkg.Name.Member`
// tokens of the living docs, so a doc that names a deleted declaration
// fails too.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllow names the unused declarations that stay, each with the
// ROADMAP item or the cross-package test that needs it. Keys are
// "pkg.Name" for package-level declarations and "pkg.Type.Name" for
// methods, pkg being the directory under internal/ (or, outside internal/,
// the package's directory, "gradsync" for the root).
var surfaceAllow = map[string]string{
	"analysis.Snapshot.CheckLegality": "ROADMAP legality item: E15/E16 check Definition 5.13 at every node",
	"analysis.Snapshot.MaxXi":         "ROADMAP legality item: the DFS oracle of the distance-transform differential",
	"analysis.LegalitySkewBound":      "ROADMAP legality item: Lemma 5.14's per-path bound for every pair",
	"analysis.StandardSeq":            "ROADMAP legality item: the gradient sequence the legality check runs against",
}

// maxSurfaceAllow caps the allowlist so it cannot become a second surface.
const maxSurfaceAllow = 5

// surfaceTags are the build tag sets the guard type-checks.
var surfaceTags = [][]string{nil, {"large"}}

// surfaceDocs are the living docs whose backticked names must resolve.
// CHANGES.md and ROADMAP.md are history and name deleted code on purpose.
var surfaceDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

func TestTestOnlySurface(t *testing.T) {
	if len(surfaceAllow) > maxSurfaceAllow {
		t.Fatalf("surfaceAllow has %d entries, at most %d allowed", len(surfaceAllow), maxSurfaceAllow)
	}
	idx, err := loadSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	problems := idx.problems(surfaceAllow)
	for _, doc := range surfaceDocs {
		p, err := idx.checkDoc(doc)
		if err != nil {
			t.Fatal(err)
		}
		problems = append(problems, p...)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// surfaceDecl is one declaration under the guard.
type surfaceDecl struct {
	id       string    // allowlist key
	exported bool      // exported name
	method   bool      // declared with a receiver
	name     string    // declared name
	from, to token.Pos // the declaration's extent; uses inside it do not count
}

// surfaceIndex is the type-checked module: the declarations under the
// guard, keyed by their name's position (each file is parsed once, so a
// position names one declaration in every tag set), and what non-test code
// uses.
type surfaceIndex struct {
	fset  *token.FileSet
	decls map[token.Pos]surfaceDecl
	uses  map[token.Pos][]token.Pos // a declaration's position → its uses
	// ifaceNames holds the names of the module interface methods that
	// non-test code uses and of every method an interface of an imported
	// standard-library package declares.
	ifaceNames map[string]bool
	// pkgs maps a package name ("gradsync" for the root) to its
	// default-build package; main packages are left out.
	pkgs map[string]*types.Package
}

// surfacePkg is one module package of one tag set.
type surfacePkg struct {
	dir     string // slash-separated, relative to the root
	files   []*ast.File
	imports []string
}

// loadSurface type-checks the non-test files of every package under root
// for each tag set of surfaceTags. Module packages are checked from source
// in import order; the standard library comes from export data.
func loadSurface(root string) (*surfaceIndex, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs := map[string][]string{} // dir → its non-test .go file names
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
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = append(dirs[filepath.Dir(path)], d.Name())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	idx := &surfaceIndex{
		fset:       token.NewFileSet(),
		decls:      map[token.Pos]surfaceDecl{},
		uses:       map[token.Pos][]token.Pos{},
		ifaceNames: map[string]bool{"Error": true}, // the universe's error
		pkgs:       map[string]*types.Package{},
	}
	std := importer.ForCompiler(idx.fset, "gc", nil)
	parsed := map[string]*ast.File{}
	stdSeen := map[*types.Package]bool{}
	for pass, tags := range surfaceTags {
		ctx := build.Default
		ctx.BuildTags = tags
		pkgs := map[string]*surfacePkg{} // import path → package
		for osDir, names := range dirs {
			rel, err := filepath.Rel(root, osDir)
			if err != nil {
				return nil, err
			}
			p := &surfacePkg{dir: filepath.ToSlash(rel)}
			for _, name := range names {
				ok, err := ctx.MatchFile(osDir, name)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				path := filepath.Join(osDir, name)
				f := parsed[path]
				if f == nil {
					if f, err = parser.ParseFile(idx.fset, path, nil, parser.SkipObjectResolution); err != nil {
						return nil, err
					}
					parsed[path] = f
				}
				p.files = append(p.files, f)
				for _, spec := range f.Imports {
					imp, _ := strconv.Unquote(spec.Path.Value)
					p.imports = append(p.imports, imp)
				}
			}
			if len(p.files) == 0 {
				continue
			}
			importPath := modPath
			if p.dir != "." {
				importPath += "/" + p.dir
			}
			pkgs[importPath] = p
		}

		checked := map[string]*types.Package{}
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if pkg, ok := checked[path]; ok {
				return pkg, nil
			}
			return std.Import(path)
		})}
		for _, path := range importOrder(pkgs) {
			p := pkgs[path]
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			pkg, err := conf.Check(path, idx.fset, p.files, info)
			if err != nil {
				return nil, err
			}
			checked[path] = pkg
			if pass == 0 && pkg.Name() != "main" {
				idx.pkgs[pkg.Name()] = pkg
			}
			for _, f := range p.files {
				idx.addDecls(p.dir, f)
			}
			idx.addUses(info, p.files, pkgs)
			for _, imp := range pkg.Imports() {
				if pkgs[imp.Path()] == nil && !stdSeen[imp] {
					stdSeen[imp] = true
					addInterfaceNames(imp, idx.ifaceNames)
				}
			}
		}
	}
	return idx, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importOrder lists the import paths of pkgs so that each package follows
// the module packages it imports.
func importOrder(pkgs map[string]*surfacePkg) []string {
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var order []string
	seen := map[string]bool{}
	var visit func(path string)
	visit = func(path string) {
		if seen[path] || pkgs[path] == nil {
			return
		}
		seen[path] = true
		for _, imp := range pkgs[path].imports {
			visit(imp)
		}
		order = append(order, path)
	}
	for _, path := range paths {
		visit(path)
	}
	return order
}

// addDecls indexes the declarations of one file of package dir that the
// guard covers: the exported package-level names and methods of internal/
// packages, and the unexported package-level names of every package but
// perfbench/'s.
func (idx *surfaceIndex) addDecls(dir string, f *ast.File) {
	internal := dir == "internal" || strings.HasPrefix(dir, "internal/")
	bench := dir == "perfbench" || strings.HasPrefix(dir, "perfbench/")
	key := strings.TrimPrefix(dir, "internal/")
	if dir == "." {
		key = f.Name.Name
	}
	add := func(id string, name *ast.Ident, method bool, node ast.Node) {
		exported := name.IsExported()
		if (exported && !internal) || (!exported && (method || bench || name.Name == "_")) {
			return
		}
		idx.decls[name.Pos()] = surfaceDecl{id: key + "." + id, exported: exported, method: method,
			name: name.Name, from: node.Pos(), to: node.End()}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			switch {
			case decl.Recv != nil:
				add(receiverName(decl.Recv.List[0].Type)+"."+decl.Name.Name, decl.Name, true, decl)
			case decl.Name.Name != "init" && (decl.Name.Name != "main" || f.Name.Name != "main"):
				add(decl.Name.Name, decl.Name, false, decl)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name.Name, spec.Name, false, spec)
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						add(name.Name, name, false, spec)
					}
				}
			}
		}
	}
}

// addUses records what one package's non-test files use: the position of
// each module declaration an identifier resolves to, outside method
// receivers, and the names of the module interface methods among them.
func (idx *surfaceIndex) addUses(info *types.Info, files []*ast.File, pkgs map[string]*surfacePkg) {
	recv := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recv[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range info.Uses {
		if recv[id] || obj.Pkg() == nil || pkgs[obj.Pkg().Path()] == nil {
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			if r := fn.Type().(*types.Signature).Recv(); r != nil && types.IsInterface(r.Type()) {
				idx.ifaceNames[fn.Name()] = true
			}
		}
		idx.uses[obj.Pos()] = append(idx.uses[obj.Pos()], id.Pos())
	}
}

// addInterfaceNames adds the method names of every exported interface of
// a standard-library package.
func addInterfaceNames(pkg *types.Package, names map[string]bool) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := range iface.NumMethods() {
				names[iface.Method(i).Name()] = true
			}
		}
	}
}

// problems returns one line per unused declaration that allow does not
// name, and one per allowlist entry with no reason or whose declaration is
// used or gone.
func (idx *surfaceIndex) problems(allow map[string]string) []string {
	var problems []string
	declared := map[string]bool{}
	for pos, d := range idx.decls {
		declared[d.id] = true
		used := d.method && idx.ifaceNames[d.name]
		for _, at := range idx.uses[pos] {
			used = used || at < d.from || at >= d.to
		}
		_, allowed := allow[d.id]
		switch {
		case allowed && used:
			problems = append(problems, fmt.Sprintf("surfaceAllow: %s is used now; delete its entry", d.id))
		case !allowed && !used:
			kind, why := "unexported", "no non-test code uses it"
			if d.exported {
				kind = "exported"
			}
			if d.method {
				why = "no non-test code uses it or an interface method of its name"
			}
			problems = append(problems, fmt.Sprintf("%s: %s %s: %s", idx.fset.Position(pos), kind, d.id, why))
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
	return problems
}

var (
	// docFence matches a fenced code block.
	docFence = regexp.MustCompile("(?ms)^```.*?^```")
	// docSpan matches an inline code span.
	docSpan = regexp.MustCompile("`[^`]+`")
	// docName matches pkg.Name and pkg.Name.Member inside a span, not
	// preceded by a selector, a path or a word.
	docName = regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?`)
)

// checkDoc returns one problem line per backticked pkg.Name[.Member]
// token of the markdown file at path that names a module package but no
// declaration of it, members being the fields and methods of Name's type.
func (idx *surfaceIndex) checkDoc(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	text := docFence.ReplaceAllStringFunc(string(data), func(s string) string {
		return strings.Repeat("\n", strings.Count(s, "\n"))
	})
	var problems []string
	for _, span := range docSpan.FindAllStringIndex(text, -1) {
		for _, m := range docName.FindAllStringSubmatch(text[span[0]:span[1]], -1) {
			pkg := idx.pkgs[m[1]]
			if pkg == nil {
				continue
			}
			obj := pkg.Scope().Lookup(m[2])
			found := obj != nil
			if found && m[3] != "" {
				member, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, m[3])
				found = member != nil
			}
			if !found {
				name := m[1] + "." + m[2]
				if m[3] != "" {
					name += "." + m[3]
				}
				line := 1 + strings.Count(text[:span[0]], "\n")
				problems = append(problems, fmt.Sprintf("%s:%d: %s names no declaration", path, line, name))
			}
		}
	}
	return problems, nil
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

// TestSurfaceFixture runs the guard on a small module in a temp dir. It
// flags a function only a _test.go file calls, a method no non-test code
// calls, a method whose only same-named non-test selector is a field, a
// type that only a receiver names, an unexported function only a _test.go
// file calls and a function of a -tags large file. It does not flag a
// method called only through an interface, a function only perfbench/
// calls or a method of a generic type called through an instantiation. An
// allowlist entry fails when it has no reason, when its declaration is
// used, or when it is gone; and a doc token fails when it names no
// declaration or no member.
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

type T struct{ Masked int }

func (T) ViaIface() {}

func (T) Dead() {}

func (T) Masked2() {}

type OnlyRecv struct{}

func (OnlyRecv) ViaIface() {}

func onlyTestHelper() {}

type Queue[P any] struct{ items []P }

func (q *Queue[P]) Push(p P) { q.items = append(q.items, p) }

func Masking(t T) int { return t.Masked }
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestOnly(t *testing.T) { OnlyTest(); T{}.Dead(); T{}.Masked2(); onlyTestHelper(); _ = OnlyRecv{} }
`,
		"cmd/app/main.go": `package main

import "fix/internal/a"

type viaIface interface{ ViaIface() }

type masked struct{ Masked2 int }

func main() {
	var v viaIface = a.T{}
	v.ViaIface()
	a.Used()
	var q a.Queue[int]
	q.Push(1)
	_ = a.Masking(a.T{}) + masked{}.Masked2
}
`,
		"internal/a/large.go": `//go:build large

package a

func OnlyLarge() {}
`,
		"perfbench/main.go": `package main

import "fix/internal/a"

func main() { a.ForBench() }
`,
		"README.md": "`a.Used` and `a.T.ViaIface` and `a.T.Masked` resolve; `a.Gone` and `a.T.Gone` do not.\n" +
			"```\na.Fenced\n```\n`b.Other` names no module package.\n",
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
		"a.Used":     "used since",
		"a.Gone":     "deleted since",
	}
	idx, err := loadSurface(root)
	if err != nil {
		t.Fatal(err)
	}
	problems := idx.problems(allow)
	docProblems, err := idx.checkDoc(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	problems = append(problems, docProblems...)
	want := []string{
		"exported a.OnlyTest: no non-test code uses it",
		"exported a.T.Dead: no non-test code uses it or an interface method of its name",
		"exported a.T.Masked2: no non-test code uses it or an interface method of its name",
		"exported a.OnlyRecv: no non-test code uses it",
		"unexported a.onlyTestHelper: no non-test code uses it",
		"exported a.OnlyLarge: no non-test code uses it",
		"surfaceAllow: a.Gone is not declared",
		"surfaceAllow: a.NoReason has no reason",
		"surfaceAllow: a.Used is used now",
		"README.md:1: a.Gone names no declaration",
		"README.md:1: a.T.Gone names no declaration",
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
