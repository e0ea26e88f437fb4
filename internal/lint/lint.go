// Package lint is a small, stdlib-only static-analysis framework plus the
// six project-specific analyzers behind cmd/difftestlint. It exists
// because the correctness of the Batch/Squash/Replay stack rests on
// invariants the compiler cannot see: every pooled buffer must return
// to the pool on every control-flow path (poolcheck), no pooled bytes may
// be read after release (useafterrelease), every switch over event.Kind
// must stay exhaustive as kinds are added (kindswitch), words accessed
// through sync/atomic must never be accessed non-atomically and unsafe
// overlays must prove their alignment (atomicfield), armed connection
// deadlines must be cleared, closed, or handed off on every path out
// (deadlinepair), and every transport frame dispatch must name every
// declared frame kind (framekind).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// Analyzer, Pass, Reportf — but is built only on go/parser, go/types and the
// export data `go vet -vettool` hands each tool, so it works in a
// vendored-nothing module. If x/tools ever becomes available the analyzers
// port over mechanically.
//
// Intentional violations are suppressed with a justified directive:
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the offending line or the line above it. A directive without a
// reason, naming an unknown analyzer, or suppressing nothing is itself a
// diagnostic, so ignores stay auditable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in findings and ignore directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []rawDiag
}

type rawDiag struct {
	pos token.Pos
	msg string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, rawDiag{pos: pos, msg: fmt.Sprintf(format, args...)})
}

// Finding is one resolved diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// DriverName is the pseudo-analyzer name under which the driver reports
// problems with ignore directives themselves.
const DriverName = "lint"

// Run applies the analyzers to pkg, resolves //lint:ignore directives, and
// returns the surviving findings sorted by position. Directive misuse (no
// reason, unknown analyzer, nothing suppressed) is returned as a finding
// under DriverName.
func Run(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	known := make(map[string]bool, len(analyzers))
	var findings []Finding
	for _, a := range analyzers {
		known[a.Name] = true
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
		}
		for _, d := range pass.diags {
			findings = append(findings, Finding{
				Analyzer: a.Name,
				Pos:      pkg.Fset.Position(d.pos),
				Message:  d.msg,
			})
		}
	}

	dirs, bad := collectIgnores(pkg, known)
	findings = applyIgnores(findings, dirs)
	for _, d := range dirs {
		if !d.used {
			bad = append(bad, Finding{
				Analyzer: DriverName,
				Pos:      d.pos,
				Message:  fmt.Sprintf("lint:ignore directive for %q suppresses nothing", d.analyzer),
			})
		}
	}
	findings = append(findings, bad...)
	sortFindings(findings)
	return findings, nil
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if !samePos(a.Pos, b.Pos) {
			return posLess(a.Pos, b.Pos)
		}
		return a.Analyzer < b.Analyzer
	})
}

func samePos(a, b token.Position) bool {
	return a.Filename == b.Filename && a.Line == b.Line && a.Column == b.Column
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzer string
	pos      token.Position // position of the directive comment
	trailing bool           // shares a line with code (applies to that line)
	used     bool
}

const ignorePrefix = "//lint:ignore "

// collectIgnores parses every //lint:ignore directive in the package,
// returning the well-formed directives and findings for malformed ones.
func collectIgnores(pkg *Package, known map[string]bool) ([]*ignoreDirective, []Finding) {
	var dirs []*ignoreDirective
	var bad []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				name, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				switch {
				case name == "":
					bad = append(bad, Finding{Analyzer: DriverName, Pos: pos,
						Message: "lint:ignore directive names no analyzer"})
				case !known[name] && name != DriverName:
					bad = append(bad, Finding{Analyzer: DriverName, Pos: pos,
						Message: fmt.Sprintf("lint:ignore directive names unknown analyzer %q", name)})
				case reason == "":
					bad = append(bad, Finding{Analyzer: DriverName, Pos: pos,
						Message: fmt.Sprintf("lint:ignore %s directive gives no reason; unjustified ignores are rejected", name)})
				default:
					dirs = append(dirs, &ignoreDirective{
						analyzer: name,
						pos:      pos,
						trailing: !startsLine(pkg, c),
					})
				}
			}
		}
	}
	return dirs, bad
}

// startsLine reports whether the comment is the first token on its line
// (a standalone directive applying to the next line).
func startsLine(pkg *Package, c *ast.Comment) bool {
	pos := pkg.Fset.Position(c.Pos())
	// A trailing comment follows code, so its column is past the code's
	// start. Directive comments written on their own line conventionally
	// start the line (possibly indented); treat a comment as standalone
	// unless some earlier AST token shares its line. Checking the file's
	// line offsets directly would need the source text, so approximate:
	// scan the file's decls for any node ending on the same line before
	// the comment.
	for _, f := range pkg.Files {
		if pkg.Fset.File(f.Pos()) != pkg.Fset.File(c.Pos()) {
			continue
		}
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil || found {
				return false
			}
			if _, ok := n.(*ast.Comment); ok {
				return false
			}
			if n.End() <= c.Pos() && pkg.Fset.Position(n.End()).Line == pos.Line {
				// Some code token ends on the directive's line before it.
				switch n.(type) {
				case *ast.File, *ast.CommentGroup:
				default:
					found = true
				}
			}
			return true
		})
		return !found
	}
	return true
}

// applyIgnores drops the findings a directive covers, marking those
// directives used. A standalone directive covers the next line; a trailing
// directive covers its own line.
func applyIgnores(findings []Finding, dirs []*ignoreDirective) []Finding {
	kept := findings[:0]
	for _, f := range findings {
		suppressed := false
		for _, d := range dirs {
			if d.analyzer != f.Analyzer || d.pos.Filename != f.Pos.Filename {
				continue
			}
			line := d.pos.Line
			if !d.trailing {
				line++
			}
			if f.Pos.Line == line {
				d.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	return kept
}

// eventPackage returns the project's event package as seen from pass (the
// package itself or one of its imports), or nil if not referenced.
func eventPackage(pass *Pass) *types.Package {
	if isEventPath(pass.Pkg.Path()) {
		return pass.Pkg
	}
	for _, imp := range pass.Pkg.Imports() {
		if isEventPath(imp.Path()) {
			return imp
		}
	}
	return nil
}

func isEventPath(path string) bool {
	return path == "repro/internal/event" || strings.HasSuffix(path, "/internal/event")
}

func isBatchPath(path string) bool {
	return path == "repro/internal/batch" || strings.HasSuffix(path, "/internal/batch")
}

func isFaultnetPath(path string) bool {
	return path == "repro/internal/faultnet" || strings.HasSuffix(path, "/internal/faultnet")
}

// eventFunc reports whether obj is the named function from the event package.
func eventFunc(obj types.Object, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	return isEventPath(fn.Pkg().Path())
}

// exprObj resolves an identifier or selector expression, such as a call's
// Fun, to its object; nil for anything else.
func exprObj(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	}
	return nil
}
