package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// UseAfterRelease enforces the other half of the pool discipline: once a
// pooled buffer or Packet goes back to the pool, no alias of it may be
// touched. Two rules:
//
//  1. After `event.PutBuf(x)` or `pkt.Release()` at the top level of a
//     statement sequence, any later statement in that sequence reading x (or
//     pkt's payload) is a use-after-release — the pool may have handed the
//     bytes to a concurrent owner. Reassigning the variable re-arms it.
//  2. A local that is both released with PutBuf and stored into a struct
//     field, map/slice element, global, or channel in the same function is
//     an alias retained past release — the exact bug class the by-value
//     Packet transfer in internal/cosim/executed.go exists to prevent.
//
// Releases nested in conditionals only invalidate their own branch, so the
// common `if err != nil { event.PutBuf(buf); return err }` guard stays
// clean.
var UseAfterRelease = &Analyzer{
	Name: "useafterrelease",
	Doc:  "no read of a pooled buffer or Packet payload after PutBuf/Release, and no released buffer retained in a structure",
	Run:  runUseAfterRelease,
}

func runUseAfterRelease(pass *Pass) error {
	if eventPackage(pass) == nil {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				ua := &uarChecker{pass: pass}
				ua.block(body.List)
				ua.checkRetainedAliases(body)
			}
			return true
		})
	}
	return nil
}

type uarChecker struct {
	pass *Pass
}

// block scans one statement sequence. Releases performed by a top-level
// statement of this sequence poison the variable for the rest of the
// sequence; nested sequences are scanned recursively with a fresh horizon.
func (ua *uarChecker) block(list []ast.Stmt) {
	released := make(map[types.Object]token.Pos)
	for _, s := range list {
		if len(released) > 0 {
			ua.scanUses(s, released, rebindTargets(ua.pass.Info, s))
		}
		// Reassignment re-arms a variable.
		ua.clearRebinds(s, released)
		if obj, pos := ua.releaseTarget(s); obj != nil {
			released[obj] = pos
		}
		ua.nested(s)
	}
}

// rebindTargets returns the bare-identifier LHS idents of an assignment:
// writing a fresh value into a released variable is a rebind, not a read.
// (Writing *through* it, buf[0] = x, still reads the released pointer.)
func rebindTargets(info *types.Info, s ast.Stmt) map[*ast.Ident]bool {
	as, ok := s.(*ast.AssignStmt)
	if !ok || as.Tok == token.ADD_ASSIGN {
		return nil
	}
	skip := make(map[*ast.Ident]bool)
	if as.Tok == token.ASSIGN || as.Tok == token.DEFINE {
		for _, l := range as.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				skip[id] = true
			}
		}
	}
	return skip
}

// releaseTarget returns the local variable a top-level statement releases:
// event.PutBuf(x) or x.Release().
func (ua *uarChecker) releaseTarget(s ast.Stmt) (types.Object, token.Pos) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return nil, token.NoPos
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return nil, token.NoPos
	}
	if eventFunc(exprObj(ua.pass.Info, call.Fun), "PutBuf") && len(call.Args) == 1 {
		if obj := localVar(ua.pass.Info, call.Args[0]); obj != nil {
			return obj, call.Pos()
		}
	}
	if isPacketRelease(ua.pass.Info, call) {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if obj := localVar(ua.pass.Info, sel.X); obj != nil {
				return obj, call.Pos()
			}
		}
	}
	return nil, token.NoPos
}

// scanUses reports reads of released variables anywhere inside s (including
// nested blocks and closures — the release dominates them all). Idents in
// skip are plain-assignment targets, not reads.
func (ua *uarChecker) scanUses(s ast.Stmt, released map[types.Object]token.Pos, skip map[*ast.Ident]bool) {
	ast.Inspect(s, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if skip[id] {
			return true
		}
		obj := ua.pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		if relPos, ok := released[obj]; ok {
			ua.pass.Reportf(id.Pos(),
				"%s is used after being returned to the pool at %s — the pool may already have handed these bytes to another owner",
				id.Name, ua.pass.Fset.Position(relPos))
		}
		return true
	})
}

// clearRebinds re-arms variables fully reassigned by s at the top level.
func (ua *uarChecker) clearRebinds(s ast.Stmt, released map[types.Object]token.Pos) {
	as, ok := s.(*ast.AssignStmt)
	if !ok {
		return
	}
	for _, l := range as.Lhs {
		if id, ok := ast.Unparen(l).(*ast.Ident); ok {
			if obj := objectOf(ua.pass.Info, id); obj != nil {
				delete(released, obj)
			}
		}
	}
}

// nested recurses into every statement sequence contained in s.
func (ua *uarChecker) nested(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		ua.block(s.List)
	case *ast.IfStmt:
		ua.block(s.Body.List)
		if s.Else != nil {
			ua.nested(s.Else)
		}
	case *ast.ForStmt:
		ua.block(s.Body.List)
	case *ast.RangeStmt:
		ua.block(s.Body.List)
	case *ast.SwitchStmt:
		ua.clauses(s.Body)
	case *ast.TypeSwitchStmt:
		ua.clauses(s.Body)
	case *ast.SelectStmt:
		ua.clauses(s.Body)
	case *ast.LabeledStmt:
		ua.nested(s.Stmt)
	}
}

func (ua *uarChecker) clauses(body *ast.BlockStmt) {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			ua.block(c.Body)
		case *ast.CommClause:
			ua.block(c.Body)
		}
	}
}

// checkRetainedAliases applies rule 2 over the whole function body: a local
// that is both PutBuf'd and stored into something that outlives the call.
func (ua *uarChecker) checkRetainedAliases(body *ast.BlockStmt) {
	releasedVars := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if eventFunc(exprObj(ua.pass.Info, call.Fun), "PutBuf") && len(call.Args) == 1 {
			if obj := localVar(ua.pass.Info, call.Args[0]); obj != nil {
				releasedVars[obj] = true
			}
		}
		return true
	})
	if len(releasedVars) == 0 {
		return
	}

	report := func(id *ast.Ident, how string) {
		ua.pass.Reportf(id.Pos(),
			"%s is %s but also returned to the pool with PutBuf in this function — the retained alias outlives the release",
			id.Name, how)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				switch ast.Unparen(l).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					if i < len(n.Rhs) || len(n.Rhs) == 1 {
						ri := 0
						if len(n.Rhs) == len(n.Lhs) {
							ri = i
						}
						if id := releasedIdent(ua.pass.Info, n.Rhs[ri], releasedVars); id != nil {
							report(id, "stored into a structure")
						}
					}
				}
			}
		case *ast.SendStmt:
			if id := releasedIdent(ua.pass.Info, n.Value, releasedVars); id != nil {
				report(id, "sent on a channel")
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if id := releasedIdent(ua.pass.Info, v, releasedVars); id != nil {
					report(id, "stored into a composite literal")
				}
			}
		}
		return true
	})
}

// releasedIdent returns the identifier if expr is (a slice of) a released
// local variable.
func releasedIdent(info *types.Info, expr ast.Expr, released map[types.Object]bool) *ast.Ident {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil && released[obj] {
			return e
		}
	case *ast.SliceExpr:
		return releasedIdent(info, e.X, released)
	}
	return nil
}

// localVar resolves expr to a function-local *types.Var identifier.
func localVar(info *types.Info, expr ast.Expr) types.Object {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	return v
}
