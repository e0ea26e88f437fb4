package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// difftestlint runs only as a `go vet -vettool` tool. The go command drives
// it once per package with the unitchecker protocol —
//
//	difftestlint -V=full          → print a tool-version fingerprint
//	difftestlint -flags           → print the supported analyzer flags (JSON)
//	difftestlint <file>.cfg       → analyze one package described by the
//	                                JSON config, typechecking against the
//	                                compiler's export data, and print
//	                                findings
//
// so the go command's per-package action graph and caching do the loading.
// The cfg schema mirrors x/tools' unitchecker.Config (the schema the go
// command emits).

// UnitConfig is the subset of the go command's vet config this tool reads.
// The analyzer tests build the same config from `go list -export -deps`.
type UnitConfig struct {
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Package is one parsed, typechecked package.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// RunVetTool implements the protocol above for the given command-line args
// (os.Args[1:]) and returns the process exit code: 0 clean, 2 findings or
// not a protocol invocation, 1 when the tool itself failed.
func RunVetTool(progName string, args []string, stdout, stderr io.Writer) int {
	switch {
	case len(args) == 1 && args[0] == "-V=full":
		// The go command fingerprints the tool for its build cache with a
		// "name version ..." line.
		fmt.Fprintf(stdout, "%s version v1.0.0-difftestlint\n", filepath.Base(progName))
		return 0
	case len(args) == 1 && args[0] == "-flags":
		// No analyzer-specific flags; an empty JSON list tells go vet so.
		fmt.Fprintln(stdout, "[]")
		return 0
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		code, err := runUnit(args[0], stdout)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", filepath.Base(progName), err)
			return 1
		}
		return code
	}
	fmt.Fprintf(stderr, "usage: go vet -vettool=$(pwd)/bin/%s ./...\n", filepath.Base(progName))
	return 2
}

func runUnit(cfgFile string, stdout io.Writer) (int, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return 0, err
	}
	var cfg UnitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("parsing %s: %w", cfgFile, err)
	}

	// The go command caches the facts file; ours is always empty (the
	// analyzers are purely local) but must exist.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return 0, err
		}
	}
	if cfg.VetxOnly {
		// Dependencies are analyzed only for facts; we have none.
		return 0, nil
	}

	pkg, err := Typecheck(&cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, err
	}
	findings, err := Run(pkg, All())
	if err != nil {
		return 0, err
	}
	// vet surfaces the tool's stdout/stderr verbatim on failure.
	for _, f := range findings {
		fmt.Fprintln(stdout, f.String())
	}
	if len(findings) > 0 {
		return 2, nil
	}
	return 0, nil
}

// Typecheck parses cfg.GoFiles and typechecks them as cfg.ImportPath against
// the compiler's export data: each import path is mapped through
// cfg.ImportMap, then read from the cfg.PackageFile entry for it.
func Typecheck(cfg *UnitConfig) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{
		Importer:    &unitImporter{gc: gc, importMap: cfg.ImportMap},
		FakeImportC: true,
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking %s: %w", cfg.ImportPath, err)
	}
	return &Package{
		ImportPath: cfg.ImportPath,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// unitImporter maps source import paths through the vet config's vendor map
// before consulting gc export data.
type unitImporter struct {
	gc        types.Importer
	importMap map[string]string
}

func (im *unitImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := im.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return im.gc.Import(path)
}
