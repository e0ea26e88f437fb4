package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// FrameKind lifts kindswitch's exhaustiveness idea to the DTH1 protocol
// layer: every switch that dispatches on a transport frame type must
// explicitly name every Frame* kind the protocol declares. Unlike
// kindswitch, a default clause does not satisfy the rule — at a protocol
// dispatch site the default arm is the corruption/violation path, and
// letting a newly added control frame land there silently is exactly the bug
// class this exists to stop: the frame is checksummed, sequenced, delivered…
// and then dropped or misread by a dispatch site nobody updated.
//
// The frame-kind registry is derived from the transport package itself:
// every exported package-level uint8 constant named Frame<Kind>. A switch is
// a dispatch site when its tag is a uint8 and at least one case names a
// registry constant. Sites that deliberately reject a subset list the
// rejected kinds in a case arm that falls through to (or shares) the error
// path — the point is that `make lint` fails until every site has made a
// decision about the new kind.
var FrameKind = &Analyzer{
	Name: "framekind",
	Doc:  "every switch dispatching on a transport frame type must explicitly handle every declared Frame* kind; default only catches corruption",
	Run:  runFrameKind,
}

// transportPackage returns the project's transport package as seen from
// pass, or nil when not referenced.
func transportPackage(pass *Pass) *types.Package {
	if isTransportPath(pass.Pkg.Path()) {
		return pass.Pkg
	}
	for _, imp := range pass.Pkg.Imports() {
		if isTransportPath(imp.Path()) {
			return imp
		}
	}
	return nil
}

func isTransportPath(path string) bool {
	return path == "repro/internal/transport" || strings.HasSuffix(path, "/internal/transport")
}

func runFrameKind(pass *Pass) error {
	tp := transportPackage(pass)
	if tp == nil {
		return nil
	}
	kinds := frameKinds(tp)
	if len(kinds) == 0 {
		return nil
	}
	kindConsts := make(map[types.Object]bool, len(kinds))
	rule := &coverageRule{
		maxShown: 5,
		format:   "frame dispatch covers %d of %d frame kinds (missing %s); name every kind explicitly — the default arm is for corruption, not new control frames",
	}
	for _, c := range kinds {
		kindConsts[c] = true
		v, _ := constant.Int64Val(constant.ToInt(c.Val()))
		rule.members = append(rule.members, enumConst{name: c.Name(), val: v})
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := pass.Info.Types[sw.Tag]
			if !ok || !isUint8(tv.Type) {
				return true
			}
			if !mentionsFrameKind(pass, sw, kindConsts) {
				return true
			}
			rule.check(pass, sw)
			return true
		})
	}
	return nil
}

// frameKinds collects the frame-kind registry: exported uint8 constants
// named Frame<Kind> in the transport package, sorted by value.
func frameKinds(tp *types.Package) []*types.Const {
	scope := tp.Scope()
	var kinds []*types.Const
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, "Frame") || name == "Frame" {
			continue
		}
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !isUint8(c.Type()) {
			continue
		}
		kinds = append(kinds, c)
	}
	sort.Slice(kinds, func(i, j int) bool {
		vi, _ := constant.Int64Val(constant.ToInt(kinds[i].Val()))
		vj, _ := constant.Int64Val(constant.ToInt(kinds[j].Val()))
		return vi < vj
	})
	return kinds
}

// isUint8 reports whether t's underlying type is uint8.
func isUint8(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// mentionsFrameKind reports whether any case expression resolves to a
// registry constant — the signal that this uint8 switch dispatches frames.
func mentionsFrameKind(pass *Pass, sw *ast.SwitchStmt, kindConsts map[types.Object]bool) bool {
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if obj := exprObj(pass.Info, e); obj != nil && kindConsts[obj] {
				return true
			}
		}
	}
	return false
}
