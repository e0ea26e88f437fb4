package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// KindSwitch enforces exhaustiveness for switches over event.Kind: every
// such switch either carries a default clause or covers all NumKinds kinds.
// Without this, adding the 33rd event kind silently falls through the
// checker/squash/replay dispatch paths — the event is transmitted, counted,
// and never checked.
var KindSwitch = &Analyzer{
	Name: "kindswitch",
	Doc:  "every switch over event.Kind must have a default clause or cover all event kinds",
	Run:  runKindSwitch,
}

func runKindSwitch(pass *Pass) error {
	evPkg := eventPackage(pass)
	if evPkg == nil {
		return nil
	}
	kindType := scopeType(evPkg, "Kind")
	if kindType == nil {
		return nil
	}
	numKinds, ok := kindCount(evPkg, kindType)
	if !ok {
		return nil
	}
	rule := &coverageRule{
		members:       kindMembers(evPkg, kindType, numKinds),
		defaultCovers: true,
		maxShown:      4,
		format:        "switch over event.Kind has no default clause and covers %d of %d kinds (missing %s) — a new kind would silently fall through",
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := pass.Info.Types[sw.Tag]
			if !ok || !types.Identical(tv.Type, kindType) {
				return true
			}
			rule.check(pass, sw)
			return true
		})
	}
	return nil
}

// scopeType looks up a named type in pkg's scope.
func scopeType(pkg *types.Package, name string) types.Type {
	tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	return tn.Type()
}

// kindCount reads the NumKinds sentinel constant from the event package.
func kindCount(evPkg *types.Package, kindType types.Type) (int64, bool) {
	c, ok := evPkg.Scope().Lookup("NumKinds").(*types.Const)
	if !ok || !types.Identical(c.Type(), kindType) {
		return 0, false
	}
	v, ok := constant.Int64Val(constant.ToInt(c.Val()))
	return v, ok
}

// kindMembers lists the kinds below numKinds, each under its declared
// constant name (Kind(n) when it has none), sorted by name.
func kindMembers(evPkg *types.Package, kindType types.Type, numKinds int64) []enumConst {
	names := make(map[int64]string)
	scope := evPkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), kindType) || name == "NumKinds" {
			continue
		}
		v, ok := constant.Int64Val(constant.ToInt(c.Val()))
		if !ok || v < 0 || v >= numKinds {
			continue
		}
		// Prefer the canonical Kind* spelling if several constants alias.
		if prev, exists := names[v]; !exists || (!strings.HasPrefix(prev, "Kind") && strings.HasPrefix(name, "Kind")) {
			names[v] = name
		}
	}
	members := make([]enumConst, numKinds)
	for v := range members {
		name := names[int64(v)]
		if name == "" {
			name = fmt.Sprintf("Kind(%d)", v)
		}
		members[v] = enumConst{name: name, val: int64(v)}
	}
	sort.Slice(members, func(i, j int) bool { return members[i].name < members[j].name })
	return members
}

// enumConst is one member of an enum a switch must cover.
type enumConst struct {
	name string
	val  int64
}

// coverageRule is the exhaustiveness check kindswitch and framekind share:
// a switch's constant cases must name every member of an enum.
type coverageRule struct {
	members       []enumConst // in the order a finding lists missing ones
	defaultCovers bool        // a default clause satisfies the rule
	maxShown      int         // missing members named before "… N more"
	format        string      // takes covered count, member count, missing list
}

// check reports sw when its cases leave members uncovered.
func (r *coverageRule) check(pass *Pass, sw *ast.SwitchStmt) {
	covered := make(map[int64]bool)
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			if r.defaultCovers {
				return
			}
			continue
		}
		for _, e := range cc.List {
			tv, ok := pass.Info.Types[e]
			if !ok || tv.Value == nil {
				continue // non-constant case expression proves nothing
			}
			if v, ok := constant.Int64Val(constant.ToInt(tv.Value)); ok {
				covered[v] = true
			}
		}
	}

	var missing []string
	for _, m := range r.members {
		if !covered[m.val] {
			missing = append(missing, m.name)
		}
	}
	if len(missing) == 0 {
		return
	}
	shown := missing
	if len(shown) > r.maxShown {
		shown = append(shown[:r.maxShown:r.maxShown], fmt.Sprintf("… %d more", len(missing)-r.maxShown))
	}
	pass.Reportf(sw.Pos(), r.format, len(r.members)-len(missing), len(r.members), strings.Join(shown, ", "))
}
