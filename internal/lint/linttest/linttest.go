// Package linttest is the shared test harness for the difftestlint
// analyzers, in the style of x/tools' analysistest: a testdata package is
// typechecked through the same path go vet drives (its imports of
// repro/internal/... resolve to the actual packages' export data), the
// analyzers under test run over it, and the findings are matched against
// `// want "regexp"` expectation comments.
//
// A want comment expects one finding per quoted regexp on its own line:
//
//	buf := event.GetBuf(8) // want `not released`
//
// Every expectation must be matched by a finding and every finding by an
// expectation; anything else fails the test.
package linttest

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// Run typechecks the testdata package at dir (relative to the caller's
// package directory), applies the analyzers, and matches findings against
// want comments. The full driver runs, so //lint:ignore directives
// participate and driver findings match want comments too.
func Run(t *testing.T, dir string, analyzers ...*lint.Analyzer) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.Typecheck(Config(t, dir))
	if err != nil {
		t.Fatalf("typechecking %s: %v", dir, err)
	}
	findings, err := lint.Run(pkg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}

	wants := collectWants(t, abs)
	matched := make([]bool, len(wants))

	for _, f := range findings {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != filepath.Base(f.Pos.Filename) || w.line != f.Pos.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding at %s:%d: %s (%s)",
				filepath.Base(f.Pos.Filename), f.Pos.Line, f.Message, f.Analyzer)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants scans every .go file in dir for want comments.
func collectWants(t *testing.T, dir string) []want {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			for _, pat := range parseWantPatterns(line[idx+len("// want "):]) {
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", e.Name(), i+1, pat, err)
				}
				wants = append(wants, want{file: e.Name(), line: i + 1, re: re})
			}
		}
	}
	return wants
}

// parseWantPatterns extracts the quoted (double-quote or backquote) regexps
// from the text after "// want ".
func parseWantPatterns(s string) []string {
	var pats []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return pats
		}
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return pats
			}
			pats = append(pats, s[1:1+end])
			s = s[end+2:]
		case '"':
			// Re-quote through strconv to honor escapes.
			rest := s
			for i := 1; i < len(rest); i++ {
				if rest[i] == '"' && rest[i-1] != '\\' {
					if unq, err := strconv.Unquote(rest[:i+1]); err == nil {
						pats = append(pats, unq)
					}
					s = rest[i+1:]
					break
				}
				if i == len(rest)-1 {
					return pats
				}
			}
		default:
			return pats
		}
	}
}

// Config returns the vet config the go command would hand the tool for the
// package in dir: its Go files, and export data for every dependency, from
// `go list -export -deps -json`.
func Config(t *testing.T, dir string) *lint.UnitConfig {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", abs)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -export %s: %v\n%s", dir, err, stderr.String())
	}
	// -deps lists dependencies in post-order, so the package itself is last.
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		ImportMap               map[string]string
	}
	var p listed
	cfg := &lint.UnitConfig{PackageFile: make(map[string]string)}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p = listed{}
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			cfg.PackageFile[p.ImportPath] = p.Export
		}
	}
	cfg.ImportPath, cfg.ImportMap = p.ImportPath, p.ImportMap
	for _, name := range p.GoFiles {
		cfg.GoFiles = append(cfg.GoFiles, filepath.Join(p.Dir, name))
	}
	return cfg
}
