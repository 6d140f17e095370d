// Package lint is corec's in-tree static-analysis suite. It enforces the
// project invariants the Go compiler cannot see: no RPC or blocking
// operation while a server state mutex is held (locksafe), full plumbing of
// every wire message kind (wiremsg), injected randomness and clocks in
// deterministic packages (detrand), no silently discarded errors
// (droppederr), no map-iteration order leaking into placement decisions
// or wire output (mapsort), and read requests built only by the reader
// package (readpath).
//
// Each analyzer is a value of one type, Analyzer: a name, a doc, the
// package names it covers, and the hooks it needs. Run walks every
// package's non-test files once and hands each node, and each function
// body, to the hooks of the analyzers that cover the package; the one
// whole-program hook (wiremsg) sees its packages by name. Every finding
// leaves through one report call, which stamps the analyzer's name on it.
//
// The suite is deliberately stdlib-only: packages are located with
// `go list -export -deps -json`, parsed with go/parser and type-checked
// with go/types against the toolchain's export data, so `make lint` needs
// no network access and no module dependencies.
//
// Diagnostics may be suppressed per line with
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the flagged line or the line directly above it. The reason is
// mandatory, and a suppression that matches no diagnostic is itself
// reported, so stale ignores cannot accumulate.
package lint

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Package is one type-checked package under analysis.
type Package struct {
	Path  string // import path ("corec/internal/server")
	Name  string // package name ("server")
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Program is the unit analyzers run over: a set of packages sharing one
// FileSet and importer, so positions and imported objects are comparable.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Loader resolves and type-checks packages. One Loader shares a FileSet and
// a gc-export-data importer across everything it loads, so types imported
// by different packages are identical objects.
type Loader struct {
	Fset *token.FileSet
	// exports maps import path -> compiled export data file, filled by
	// `go list -export`.
	exports map[string]string
	// mem holds source-checked packages (fixtures) importable by path.
	mem map[string]*types.Package
	gc  types.Importer
}

// newLoader runs `go list -export -deps -json` over patterns and returns a
// loader whose importer can resolve every listed package (and its
// dependencies) from compiler export data. Patterns follow `go list`
// syntax: "./...", "corec/internal/server", or plain std paths ("sync").
// The listed non-dependency packages are returned in dependency order.
func newLoader(patterns ...string) (*Loader, []*listedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lint: go %s: %w", strings.Join(args, " "), err)
	}
	ld := &Loader{
		Fset:    token.NewFileSet(),
		exports: make(map[string]string),
		mem:     make(map[string]*types.Package),
	}
	var targets []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := &listedPackage{}
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			ld.exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly {
			targets = append(targets, lp)
		}
	}
	ld.gc = importer.ForCompiler(ld.Fset, "gc", ld.lookup)
	return ld, targets, nil
}

func (ld *Loader) lookup(path string) (io.ReadCloser, error) {
	f, ok := ld.exports[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %q (not among the loaded patterns' dependencies)", path)
	}
	return os.Open(f)
}

// Import implements types.Importer: source-checked fixture packages win,
// everything else resolves from export data.
func (ld *Loader) Import(path string) (*types.Package, error) {
	if p, ok := ld.mem[path]; ok {
		return p, nil
	}
	return ld.gc.Import(path)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// check parses and type-checks one package from explicit file paths.
func (ld *Loader) check(path string, files []string) (*Package, error) {
	var syntax []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(ld.Fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, af)
	}
	if len(syntax) == 0 {
		return nil, fmt.Errorf("lint: package %s has no Go files", path)
	}
	info := newInfo()
	conf := types.Config{
		Importer: ld,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(path, ld.Fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Name: pkg.Name(), Files: syntax, Pkg: pkg, Info: info}, nil
}

// Load lists, parses and type-checks the packages matching patterns,
// returning them as one Program. Test files are excluded: the suite
// analyzes shipped code, and the droppederr exemption for tests falls out
// naturally.
func Load(patterns ...string) (*Program, error) {
	ld, targets, err := newLoader(patterns...)
	if err != nil {
		return nil, err
	}
	prog := &Program{Fset: ld.Fset}
	for _, t := range targets {
		var files []string
		for _, f := range t.GoFiles {
			files = append(files, filepath.Join(t.Dir, f))
		}
		if len(files) == 0 {
			continue
		}
		pkg, err := ld.check(t.ImportPath, files)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

// LoadFixtureDir type-checks the fixture tree rooted at dir for analyzer
// tests. Each subdirectory containing .go files becomes one package whose
// import path is the directory path relative to dir's parent (so fixtures
// can import sibling fixture packages, e.g. "wiremsg/transport"); every
// other import the fixture files declare resolves from export data.
// Unlike Load, files named *_test.go are included — fixtures use them to
// assert that the walk skips test files.
func LoadFixtureDir(dir string) (*Program, error) {
	type pending struct {
		path  string
		files []string
	}
	var todo []pending
	fixture := make(map[string]bool)
	err := filepath.WalkDir(dir, func(d string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		files, _ := filepath.Glob(filepath.Join(d, "*.go"))
		rel, err := filepath.Rel(filepath.Dir(dir), d)
		if path := filepath.ToSlash(rel); err == nil && len(files) > 0 {
			todo = append(todo, pending{path: path, files: files})
			fixture[path] = true
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	var imports []string
	for _, p := range todo {
		for _, f := range p.files {
			af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
			if err != nil {
				return nil, err
			}
			for _, imp := range af.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); !fixture[path] && !slices.Contains(imports, path) {
					imports = append(imports, path)
				}
			}
		}
	}
	ld, _, err := newLoader(imports...)
	if err != nil {
		return nil, err
	}
	// Check packages whose imports are ready first; a package that fails may
	// import a sibling fixture not yet checked, so it waits for the next
	// round. A round that checks nothing surfaces the first real error.
	prog := &Program{Fset: ld.Fset}
	for len(todo) > 0 {
		var next []pending
		var firstErr error
		for _, p := range todo {
			pkg, err := ld.check(p.path, p.files)
			if err != nil {
				next = append(next, p)
				firstErr = cmp.Or(firstErr, err)
				continue
			}
			ld.mem[p.path] = pkg.Pkg
			prog.Packages = append(prog.Packages, pkg)
		}
		if len(next) == len(todo) {
			return nil, firstErr
		}
		todo = next
	}
	return prog, nil
}
