package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PoolCheck verifies the buffer-pool ownership discipline around
// event.GetBuf (see internal/event/pool.go): on every control-flow path a
// pooled buffer must either be returned with event.PutBuf (directly or via
// batch.Packet.Release), escape the function (returned, stored into a
// structure, sent, or captured — the documented "never returned" ownership
// transfer), or be handed to another owner. Leaks on early returns and error
// paths — the bug class `go test` only catches probabilistically — become
// diagnostics, in the style of vet's lostcancel.
//
// The analysis is intra-procedural and tracks ownership transfer through
// single-value assignments (`b := ev.AppendTo(event.GetBuf(n))` makes b the
// owner), slicing, append, and composite literals (`Packet{Buf: buf}` makes
// the packet the owner).
var PoolCheck = &Analyzer{
	Name: "poolcheck",
	Doc:  "every event.GetBuf must be matched by PutBuf/Release or an ownership transfer on all control-flow paths",
	Run:  runPoolCheck,
}

func runPoolCheck(pass *Pass) error {
	if eventPackage(pass) == nil {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFuncPool(pass, fn.Body)
				}
				return false // nested FuncLits are visited by checkFuncPool
			case *ast.FuncLit:
				checkFuncPool(pass, fn.Body)
				return false
			}
			return true
		})
	}
	return nil
}

// poolState is the abstract state at one program point: the set of live
// (acquired, unreleased) pooled buffers, keyed by their current owner.
type poolState struct {
	live map[types.Object]token.Pos // owner var → GetBuf position
}

func newPoolState() *poolState {
	return &poolState{live: make(map[types.Object]token.Pos)}
}

func (s *poolState) clone() *poolState {
	c := newPoolState()
	for k, v := range s.live {
		c.live[k] = v
	}
	return c
}

// merge unions the live sets of states that can all reach this point.
func (s *poolState) merge(others ...*poolState) {
	for _, o := range others {
		if o == nil {
			continue
		}
		for k, v := range o.live {
			if _, ok := s.live[k]; !ok {
				s.live[k] = v
			}
		}
	}
}

type poolChecker struct {
	pass     *Pass
	reported map[token.Pos]bool // one diagnostic per acquisition
	// funcLits found while walking; each is analyzed independently after
	// the enclosing body (a pooled buffer captured by a closure escapes).
	lits []*ast.FuncLit
}

func checkFuncPool(pass *Pass, body *ast.BlockStmt) {
	pc := &poolChecker{pass: pass, reported: make(map[token.Pos]bool)}
	st := newPoolState()
	exits := pc.stmts(body.List, st)
	if !exits {
		pc.checkExit(st, body.End())
	}
	for _, lit := range pc.lits {
		checkFuncPool(pass, lit.Body)
	}
}

// stmts executes a statement list, mutating st. It returns true when control
// never falls off the end (every path returns, panics, or branches away).
func (pc *poolChecker) stmts(list []ast.Stmt, st *poolState) bool {
	for _, s := range list {
		if pc.stmt(s, st) {
			return true
		}
	}
	return false
}

// stmt interprets one statement; true means control does not continue to the
// next statement in sequence.
func (pc *poolChecker) stmt(s ast.Stmt, st *poolState) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		pc.assign(s, st)

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				if len(vs.Names) == 1 && len(vs.Values) == 1 {
					pc.bindSingle(vs.Names[0], vs.Values[0], st)
				} else {
					for _, v := range vs.Values {
						pc.scanExpr(v, st)
					}
				}
			}
		}

	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if pc.releaseCall(call, st) {
				return false
			}
			if eventFunc(exprObj(pc.pass.Info, call.Fun), "GetBuf") {
				pc.pass.Reportf(call.Pos(), "result of event.GetBuf is discarded: the buffer can never be returned to the pool")
				return false
			}
			pc.scanExpr(s.X, st)
			return isTerminalCall(pc.pass.Info, call)
		}
		pc.scanExpr(s.X, st)

	case *ast.DeferStmt:
		pc.deferRelease(s.Call, st)

	case *ast.GoStmt:
		// A buffer handed to a goroutine escapes this function's paths.
		pc.escapeExpr(s.Call, st)

	case *ast.SendStmt:
		pc.escapeExpr(s.Value, st)

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			pc.escapeExpr(r, st)
		}
		pc.checkExit(st, s.Pos())
		return true

	case *ast.BranchStmt:
		// break/continue/goto: conservatively stop following this path.
		return true

	case *ast.IfStmt:
		if s.Init != nil {
			pc.stmt(s.Init, st)
		}
		pc.scanExpr(s.Cond, st)
		thenSt := st.clone()
		elseSt := st.clone()
		// GetBuf never returns nil, so on the branch where the condition
		// proves an owner nil it cannot hold a live buffer: the nil-guarded
		// release `if buf != nil { event.PutBuf(buf) }` covers every path
		// the buffer was actually acquired on.
		if obj, nilInThen := nilComparedObj(pc.pass.Info, s.Cond); obj != nil {
			if nilInThen {
				delete(thenSt.live, obj)
			} else {
				delete(elseSt.live, obj)
			}
		}
		thenExits := pc.stmts(s.Body.List, thenSt)
		elseExits := false
		if s.Else != nil {
			elseExits = pc.stmt(s.Else, elseSt)
		}
		switch {
		case thenExits && elseExits:
			return true
		case thenExits:
			*st = *elseSt
		case elseExits:
			*st = *thenSt
		default:
			*st = *thenSt
			st.merge(elseSt)
		}

	case *ast.BlockStmt:
		return pc.stmts(s.List, st)

	case *ast.LabeledStmt:
		return pc.stmt(s.Stmt, st)

	case *ast.ForStmt:
		if s.Init != nil {
			pc.stmt(s.Init, st)
		}
		if s.Cond != nil {
			pc.scanExpr(s.Cond, st)
		}
		bodySt := st.clone()
		bodyExits := pc.stmts(s.Body.List, bodySt)
		if s.Post != nil {
			pc.stmt(s.Post, bodySt)
		}
		if !bodyExits {
			pc.checkLoopIteration(bodySt, s.Body)
		}
		st.merge(bodySt)
		pc.dropAcquiredWithin(st, s.Body)

	case *ast.RangeStmt:
		pc.scanExpr(s.X, st)
		bodySt := st.clone()
		bodyExits := pc.stmts(s.Body.List, bodySt)
		if !bodyExits {
			pc.checkLoopIteration(bodySt, s.Body)
		}
		st.merge(bodySt)
		pc.dropAcquiredWithin(st, s.Body)

	case *ast.SwitchStmt:
		if s.Init != nil {
			pc.stmt(s.Init, st)
		}
		if s.Tag != nil {
			pc.scanExpr(s.Tag, st)
		}
		return pc.caseBodies(s.Body, st, hasDefaultClause(s.Body))

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			pc.stmt(s.Init, st)
		}
		return pc.caseBodies(s.Body, st, hasDefaultClause(s.Body))

	case *ast.SelectStmt:
		return pc.caseBodies(s.Body, st, false)
	}
	return false
}

// caseBodies merges the clause bodies of a switch/select. When no default
// clause exists the pre-state is one of the reachable outcomes.
func (pc *poolChecker) caseBodies(body *ast.BlockStmt, st *poolState, hasDefault bool) bool {
	pre := st.clone()
	var surviving []*poolState
	allExit := true
	for _, c := range body.List {
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				pc.scanExpr(e, pre)
			}
			list = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				pc.stmt(c.Comm, pre.clone())
			}
			list = c.Body
		}
		cs := pre.clone()
		if !pc.stmts(list, cs) {
			allExit = false
			surviving = append(surviving, cs)
		}
	}
	if !hasDefault {
		allExit = false
		surviving = append(surviving, pre)
	}
	if allExit && len(body.List) > 0 {
		return true
	}
	clear(st.live)
	st.merge(surviving...)
	return false
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// assign interprets an assignment, handling acquisition, ownership transfer,
// and escape through stores.
func (pc *poolChecker) assign(s *ast.AssignStmt, st *poolState) {
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		pc.bindSingle(s.Lhs[0], s.Rhs[0], st)
		return
	}
	// Multi-value assignment (x, err := f(buf)): owners passed as arguments
	// stay live — helpers like Unpacker.AddPacket copy, they do not adopt.
	// A GetBuf acquisition cannot appear usefully here; treat its presence
	// in any RHS as an immediate leak of an untrackable buffer.
	for _, r := range s.Rhs {
		if gb := findGetBufCall(pc.pass.Info, r); gb != nil {
			pc.pass.Reportf(gb.Pos(), "event.GetBuf result is consumed by a multi-value expression and cannot be tracked to a PutBuf")
		}
	}
	for _, l := range s.Lhs {
		pc.rebindLHS(l, st)
	}
}

func containsObj(owners []types.Object, obj types.Object) bool {
	for _, o := range owners {
		if o == obj {
			return true
		}
	}
	return false
}

// bindSingle handles `lhs := rhs` / `lhs = rhs` / `var lhs = rhs`.
func (pc *poolChecker) bindSingle(lhs, rhs ast.Expr, st *poolState) {
	owners, acquires := pc.carriers(rhs, st)

	id, isIdent := ast.Unparen(lhs).(*ast.Ident)
	var lobj types.Object
	if isIdent && id.Name != "_" {
		lobj = objectOf(pc.pass.Info, id)
	}

	if lobj == nil {
		if isIdent && id.Name == "_" {
			// `_ = buf` is a no-op, not a transfer; a fresh GetBuf into
			// the blank identifier can never be released.
			if acquires != token.NoPos {
				pc.pass.Reportf(acquires, "result of event.GetBuf is discarded: the buffer can never be returned to the pool")
			}
			return
		}
		// Store into a field, index, map, or global: ownership transfers
		// out of the function's control flow — the pool discipline's
		// documented "never returned" escape.
		for _, o := range owners {
			delete(st.live, o)
		}
		return
	}

	// Overwriting a live owner with an unrelated value loses the buffer.
	if pos, wasLive := st.live[lobj]; wasLive && acquires == token.NoPos && !containsObj(owners, lobj) {
		pc.report(pos, "pooled buffer from event.GetBuf is overwritten without PutBuf")
		delete(st.live, lobj)
	}

	transferred := false
	for _, o := range owners {
		if pos, ok := st.live[o]; ok {
			delete(st.live, o)
			st.live[lobj] = pos
			transferred = true
		}
	}
	// A fresh GetBuf binds lhs unless a transfer already did (e.g.
	// b = ev.AppendTo(event.GetBuf(n)) keeps the transferred position).
	if acquires != token.NoPos && !transferred {
		st.live[lobj] = acquires
	}
}

func (pc *poolChecker) rebindLHS(l ast.Expr, st *poolState) {
	if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
		if obj := objectOf(pc.pass.Info, id); obj != nil {
			if pos, ok := st.live[obj]; ok {
				pc.report(pos, "pooled buffer from event.GetBuf is overwritten without PutBuf")
				delete(st.live, obj)
			}
		}
	}
}

// carriers analyses an RHS expression: which live owners flow into its
// value (and would alias the result), and whether it contains a fresh
// GetBuf acquisition.
func (pc *poolChecker) carriers(e ast.Expr, st *poolState) (owners []types.Object, acquirePos token.Pos) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return pc.carriers(e.X, st)
	case *ast.Ident:
		if obj := objectOf(pc.pass.Info, e); obj != nil {
			if _, ok := st.live[obj]; ok {
				return []types.Object{obj}, token.NoPos
			}
		}
	case *ast.SliceExpr:
		return pc.carriers(e.X, st)
	case *ast.SelectorExpr:
		// pkt.Buf aliases the packet's payload.
		return pc.carriers(e.X, st)
	case *ast.IndexExpr:
		return pc.carriers(e.X, st)
	case *ast.StarExpr:
		return pc.carriers(e.X, st)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return pc.carriers(e.X, st)
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			os, ap := pc.carriers(v, st)
			owners = append(owners, os...)
			if ap != token.NoPos {
				acquirePos = ap
			}
		}
		return owners, acquirePos
	case *ast.CallExpr:
		if eventFunc(exprObj(pc.pass.Info, e.Fun), "GetBuf") {
			return nil, e.Pos()
		}
		// A single-value call with a live owner among its arguments may
		// return an alias of it (AppendTo, append, conversions): the result
		// adopts ownership — but only when the result type could actually
		// carry the buffer. Calls returning bool/int/string (bytes.Equal,
		// len) merely read it.
		if tv, ok := pc.pass.Info.Types[e]; ok {
			if _, basic := tv.Type.Underlying().(*types.Basic); basic {
				// Still surface any acquisition buried in the arguments.
				for _, arg := range e.Args {
					if _, ap := pc.carriers(arg, st); ap != token.NoPos {
						acquirePos = ap
					}
				}
				return nil, acquirePos
			}
		}
		for _, arg := range e.Args {
			os, ap := pc.carriers(arg, st)
			owners = append(owners, os...)
			if ap != token.NoPos {
				acquirePos = ap
			}
		}
		// Also look at the receiver of method calls (buf.Something()).
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			os, _ := pc.carriers(sel.X, st)
			owners = append(owners, os...)
		}
		return owners, acquirePos
	}
	return nil, token.NoPos
}

// releaseCall handles event.PutBuf(x) and pkt.Release(); true if the call
// was a release.
func (pc *poolChecker) releaseCall(call *ast.CallExpr, st *poolState) bool {
	obj := exprObj(pc.pass.Info, call.Fun)
	if eventFunc(obj, "PutBuf") {
		for _, arg := range call.Args {
			owners, _ := pc.carriers(arg, st)
			for _, o := range owners {
				delete(st.live, o)
			}
		}
		return true
	}
	if isPacketRelease(pc.pass.Info, call) {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			owners, _ := pc.carriers(sel.X, st)
			for _, o := range owners {
				delete(st.live, o)
			}
		}
		return true
	}
	if isAdoptCall(pc.pass.Info, call) {
		// faultnet's Adopt* methods take over pooled buffers passed as
		// arguments (Journal.AdoptFrame keeps the snapshot until Release);
		// ownership transfers to the receiver, so no PutBuf follows.
		for _, arg := range call.Args {
			owners, _ := pc.carriers(arg, st)
			for _, o := range owners {
				delete(st.live, o)
			}
		}
		return true
	}
	return false
}

// deferRelease marks owners released by a deferred PutBuf/Release (defers
// run on every exit path, so the buffer is safe from then on). Deferred
// closures are scanned for release calls too.
func (pc *poolChecker) deferRelease(call *ast.CallExpr, st *poolState) {
	if pc.releaseCall(call, st) {
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				pc.releaseCall(c, st)
			}
			return true
		})
		return
	}
	// Any other deferred call receiving a live owner: escape (cleanup
	// helpers own it now).
	pc.escapeExpr(call, st)
}

// scanExpr visits an expression only to find nested FuncLits (analyzed
// separately) and nested acquisition misuse like f(event.GetBuf(n)) in
// expression statements, where the result is untracked.
func (pc *poolChecker) scanExpr(e ast.Expr, st *poolState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pc.lits = append(pc.lits, n)
			return false
		}
		return true
	})
}

// escapeExpr removes from tracking every live owner whose value flows into
// e: ownership leaves this function (return value, channel send, goroutine,
// deferred cleanup). `return len(buf)` is not an escape — carriers already
// knows basic-typed results only read the buffer.
func (pc *poolChecker) escapeExpr(e ast.Expr, st *poolState) {
	if e == nil {
		return
	}
	owners, _ := pc.carriers(e, st)
	for _, o := range owners {
		delete(st.live, o)
	}
	// Closures capture by reference: every owner referenced inside an
	// escaping FuncLit escapes with it.
	ast.Inspect(e, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		pc.lits = append(pc.lits, lit)
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if obj := objectOf(pc.pass.Info, id); obj != nil {
					delete(st.live, obj)
				}
			}
			return true
		})
		return false
	})
}

// checkExit reports every buffer still live when the function exits.
func (pc *poolChecker) checkExit(st *poolState, at token.Pos) {
	for _, pos := range st.live {
		pc.report(pos, "pooled buffer from event.GetBuf is not released with event.PutBuf on the exit path at %s",
			pc.pass.Fset.Position(at))
	}
}

// checkLoopIteration reports buffers whose owner variable is declared inside
// the loop body and still live when the iteration ends — they leak once per
// iteration. Ownership transferred to a variable declared outside the body
// (accumulators like `out = append(out, pkt)`) legitimately survives.
func (pc *poolChecker) checkLoopIteration(st *poolState, body *ast.BlockStmt) {
	for o, pos := range st.live {
		if o.Pos() >= body.Pos() && o.Pos() <= body.End() {
			pc.report(pos, "pooled buffer from event.GetBuf leaks across loop iterations (not released before the body ends)")
		}
	}
}

func (pc *poolChecker) report(acquire token.Pos, format string, args ...any) {
	if pc.reported[acquire] {
		return
	}
	pc.reported[acquire] = true
	pc.pass.Reportf(acquire, format, args...)
}

// dropAcquiredWithin forgets owners acquired inside node: loop-body
// acquisitions were already checked per-iteration and must not re-report at
// function exit.
func (pc *poolChecker) dropAcquiredWithin(st *poolState, node ast.Node) {
	for o, pos := range st.live {
		if pos >= node.Pos() && pos <= node.End() {
			delete(st.live, o)
		}
	}
}

// nilComparedObj recognizes the conditions `x == nil` and `x != nil` (either
// operand order) over a plain identifier. It returns the identifier's object
// and whether x is known nil on the then-branch (`== nil`) as opposed to the
// else-branch (`!= nil`); (nil, false) for any other condition shape.
func nilComparedObj(info *types.Info, cond ast.Expr) (obj types.Object, nilInThen bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilIdent(info, x) {
		x, y = y, x
	}
	if !isNilIdent(info, y) {
		return nil, false
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil, false
	}
	return objectOf(info, id), be.Op == token.EQL
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// findGetBufCall returns the first event.GetBuf call inside e, if any.
func findGetBufCall(info *types.Info, e ast.Expr) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok && eventFunc(exprObj(info, c.Fun), "GetBuf") {
			found = c
			return false
		}
		return true
	})
	return found
}

// objectOf resolves an identifier to its object (use or def).
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// isPacketRelease reports whether call is batch.Packet.Release.
func isPacketRelease(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Packet" || named.Obj().Pkg() == nil {
		return false
	}
	return isBatchPath(named.Obj().Pkg().Path())
}

// isAdoptCall reports whether call is an ownership-transferring Adopt*
// method on a faultnet type. The naming convention is load-bearing: any
// method of that package whose name starts with "Adopt" takes over the
// pooled buffers among its arguments — faultnet's journal keeps the
// snapshot until Release — so no PutBuf follows.
func isAdoptCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Adopt") {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || fn.Pkg() == nil {
		return false
	}
	return isFaultnetPath(fn.Pkg().Path())
}

// isTerminalCall reports calls that never return: panic, os.Exit,
// log.Fatal*, runtime.Goexit, testing's Fatal/Fatalf/FailNow/Skip*.
func isTerminalCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
				return true
			}
		}
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return false
		}
		name := fn.Name()
		if pkg := fn.Pkg(); pkg != nil && fn.Type().(*types.Signature).Recv() == nil {
			switch pkg.Path() {
			case "os":
				return name == "Exit"
			case "log":
				return name == "Fatal" || name == "Fatalf" || name == "Fatalln" ||
					name == "Panic" || name == "Panicf" || name == "Panicln"
			case "runtime":
				return name == "Goexit"
			}
			return false
		}
		switch name {
		case "Fatal", "Fatalf", "FailNow", "SkipNow", "Skipf", "Skip":
			if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "testing" {
				return true
			}
		}
	}
	return false
}
