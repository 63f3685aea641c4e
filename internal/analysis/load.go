package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path the package was loaded under.
	Path string
	// Dir is the directory its sources came from.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages without the go toolchain's
// package driver: module-local imports resolve against ModuleRoot,
// extra roots (analysistest testdata trees) resolve by relative path,
// and everything else falls back to compiling the standard library
// from source via go/importer.
type Loader struct {
	Fset *token.FileSet
	// ModuleRoot/ModulePath map imports with the ModulePath prefix to
	// directories under ModuleRoot. Either may be empty.
	ModuleRoot string
	ModulePath string
	// ExtraRoots are searched (in order) for any other import path, so
	// testdata packages can import sibling testdata packages.
	ExtraRoots []string

	pkgs map[string]*Package
	std  types.Importer
}

// NewLoader returns a loader over the given module (either argument may
// be empty for testdata-only loading).
func NewLoader(moduleRoot, modulePath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: moduleRoot,
		ModulePath: modulePath,
		pkgs:       make(map[string]*Package),
		std:        importer.ForCompiler(fset, "source", nil),
	}
}

// ModuleRootFromGoMod walks up from dir to the enclosing go.mod and
// returns its directory and module path.
func ModuleRootFromGoMod(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
	}
}

// dirFor maps an import path to a source directory, or "" if the path
// is not module-local and not under an extra root.
func (l *Loader) dirFor(path string) string {
	if l.ModulePath != "" {
		if path == l.ModulePath {
			return l.ModuleRoot
		}
		if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
			return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest))
		}
	}
	for _, root := range l.ExtraRoots {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir
		}
	}
	return ""
}

// Load parses and type-checks the package at the given import path,
// memoized per loader.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return pkg, nil
	}
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("analysis: cannot resolve source dir for %q", path)
	}
	l.pkgs[path] = nil // cycle guard
	pkg, err := l.loadDir(dir, path)
	if err != nil {
		delete(l.pkgs, path)
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

func (l *Loader) loadDir(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// loaderImporter adapts the loader to types.Importer: module-local and
// extra-root imports load from source here, everything else (the
// standard library) goes through the stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if l.dirFor(path) != "" {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// ModulePackages returns the import paths of every package in the
// module that has at least one non-test Go file, skipping testdata,
// vendor and hidden directories, and nested modules (a directory with
// its own go.mod), as the go command's ./... does.
func (l *Loader) ModulePackages() ([]string, error) {
	if l.ModuleRoot == "" {
		return nil, fmt.Errorf("analysis: loader has no module root")
	}
	var paths []string
	err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(p, "go.mod")); p != l.ModuleRoot && err == nil {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				rel, err := filepath.Rel(l.ModuleRoot, p)
				if err != nil {
					return err
				}
				if rel == "." {
					paths = append(paths, l.ModulePath)
				} else {
					paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
