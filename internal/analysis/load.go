package analysis

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
	"sort"
)

// Package is one loaded, type-checked, analyzable package.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	// Files parallels GoFiles: the parsed non-test compiled sources.
	Files   []*ast.File
	GoFiles []string
	Types   *types.Package
	Info    *types.Info
	// Src holds each file's raw bytes, keyed by absolute path — the
	// suppression and fixture layers scan source lines directly.
	Src map[string][]byte
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// listing is the resolved module graph for one go-list invocation: the
// target packages plus export data for every dependency.
type listing struct {
	targets []listedPkg
	exports map[string]string // import path -> export data file
	fset    *token.FileSet
	imp     types.Importer
}

// golist resolves ./... relative to dir via `go list -json -export
// -deps`, so the build cache supplies export data for every dependency —
// std and in-module alike. Test files are not
// listed: the invariants the suite enforces are production-code
// invariants, and every exemption the analyzers would grant tests falls
// out of that scope for free.
func golist(dir string) (*listing, error) {
	cmd := exec.Command("go", "list", "-json", "-export", "-deps", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list ./...: %w\n%s", err, stderr.String())
	}

	l := &listing{exports: map[string]string{}}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			l.targets = append(l.targets, p)
		}
	}
	sort.Slice(l.targets, func(i, j int) bool { return l.targets[i].ImportPath < l.targets[j].ImportPath })

	l.fset = token.NewFileSet()
	l.imp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	return l, nil
}

// readSources reads the package's non-test compiled Go files, keyed by
// absolute path.
func readSources(t listedPkg) (map[string][]byte, error) {
	src := make(map[string][]byte, len(t.GoFiles))
	for _, name := range t.GoFiles {
		path := filepath.Join(t.Dir, name)
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		src[path] = b
	}
	return src, nil
}

// checkPackage parses and type-checks one target package from the
// already-read sources.
func (l *listing) checkPackage(t listedPkg, src map[string][]byte) (*Package, error) {
	files := make([]*ast.File, 0, len(t.GoFiles))
	paths := make([]string, 0, len(t.GoFiles))
	for _, name := range t.GoFiles {
		path := filepath.Join(t.Dir, name)
		f, err := parser.ParseFile(l.fset, path, src[path], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		files = append(files, f)
		paths = append(paths, path)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(t.ImportPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", t.ImportPath, err)
	}
	return &Package{
		ImportPath: t.ImportPath,
		Fset:       l.fset,
		Files:      files,
		GoFiles:    paths,
		Types:      tpkg,
		Info:       info,
		Src:        src,
	}, nil
}
