package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// AtomicField guards the lock-free paths: a word that is ever accessed
// through sync/atomic is an atomic word forever. The analyzer enforces three
// rules per package:
//
//  1. Mixed access: a variable or struct field whose address is passed to a
//     sync/atomic function (atomic.LoadUint64(&s.n), atomic.AddUint32(&c.f, 1),
//     …) must never be read or written non-atomically anywhere in the
//     package. The race detector only catches the interleavings a test
//     happens to schedule; this catches the pattern itself.
//
//  2. Overlay alignment: a conversion that overlays an atomic type on raw
//     bytes — (*atomic.Uint64)(unsafe.Pointer(&b[off])), the shape shmring
//     uses for its mmap'd control words — must carry a provable alignment
//     justification: the offset must be a constant with off % align == 0
//     (align 8 for 64-bit words, 4 for 32-bit). Helpers that wrap the
//     conversion (shmring's u64at/u32at: a function whose body returns the
//     overlay of its own slice and offset parameters) shift the obligation
//     to their call sites, which must pass aligned constants. Anything else
//     needs a //lint:ignore atomicfield with the alignment argument spelled
//     out.
//
//  3. Overlay word purity: a named constant used as an atomic overlay offset
//     designates an atomic word in the mapped region; any other use of that
//     constant (an encoding/binary read, an index expression, offset
//     arithmetic) bypasses the atomic and is reported.
//
// The byte slice's own base alignment (mmap page alignment, a uint64-backed
// heap allocation) cannot be proven here and stays a documented obligation
// of the segment constructors.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "words accessed through sync/atomic (including unsafe overlays) must never be accessed non-atomically, and overlays must prove their alignment",
	Run:  runAtomicField,
}

// atomicAligns maps sync/atomic overlay target types to their required
// byte alignment.
var atomicAligns = map[string]int64{
	"Uint64":  8,
	"Int64":   8,
	"Uintptr": 8,
	"Pointer": 8,
	"Uint32":  4,
	"Int32":   4,
	"Bool":    1,
}

func runAtomicField(pass *Pass) error {
	af := &atomicFieldPass{
		Pass:         pass,
		atomicVars:   make(map[*types.Var][]token.Pos),
		atomicUses:   make(map[*ast.Ident]bool),
		overlaySpan:  nil,
		offsetConsts: make(map[*types.Const]token.Pos),
	}
	af.collectHelpers()
	for _, file := range pass.Files {
		af.collectAtomicAccesses(file)
	}
	for _, file := range pass.Files {
		af.reportMixedAccesses(file)
		af.reportConstMisuse(file)
	}
	return nil
}

type atomicFieldPass struct {
	*Pass
	// atomicVars maps each variable/field whose address reached a
	// sync/atomic function to the positions of those atomic accesses.
	atomicVars map[*types.Var][]token.Pos
	// atomicUses marks identifiers that appear inside a sanctioned atomic
	// access (the &x.f argument itself) so the mixed-access scan skips them.
	atomicUses map[*ast.Ident]bool
	// overlaySpan records the source extents of overlay conversions and
	// overlay-helper calls; offset-constant uses inside them are sanctioned.
	overlaySpan []span
	// offsetConsts maps named constants used as overlay offsets to the
	// position of the overlay establishing them as atomic words.
	offsetConsts map[*types.Const]token.Pos
	// helpers maps overlay-helper functions to the helper's shape.
	helpers map[*types.Func]overlayHelper
}

type span struct{ lo, hi token.Pos }

func (s span) contains(p token.Pos) bool { return p >= s.lo && p <= s.hi }

// overlayHelper describes a recognized overlay-wrapping function: which
// parameter is the offset and what alignment its atomic target needs.
type overlayHelper struct {
	offsetParam int // index into the call's arguments
	align       int64
	target      string // atomic type name, for diagnostics
}

// collectHelpers finds overlay-helper functions: a FuncDecl whose body is a
// single return of (*atomic.T)(unsafe.Pointer(&p[off])) with p and off both
// parameters of the function.
func (af *atomicFieldPass) collectHelpers() {
	af.helpers = make(map[*types.Func]overlayHelper)
	for _, file := range af.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || len(fd.Body.List) != 1 {
				continue
			}
			ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 {
				continue
			}
			conv, target, inner := af.overlayConversion(ret.Results[0])
			if conv == nil {
				continue
			}
			slice, offset := indexOperands(inner)
			if slice == nil || offset == nil {
				continue
			}
			fnObj, ok := af.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sliceIdx := paramIndex(af.Info, fd, slice)
			offIdx := paramIndex(af.Info, fd, offset)
			if sliceIdx < 0 || offIdx < 0 {
				continue
			}
			af.helpers[fnObj] = overlayHelper{
				offsetParam: offIdx,
				align:       atomicAligns[target],
				target:      target,
			}
			// The helper's own conversion is sanctioned: its obligation
			// moves to the call sites.
			af.overlaySpan = append(af.overlaySpan, span{lo: conv.Pos(), hi: conv.End()})
		}
	}
}

// overlayConversion matches expr against (*atomic.T)(X) where X unwraps to
// unsafe.Pointer(Y); it returns the conversion call, the atomic type name,
// and Y. A non-overlay expression returns a nil call.
func (af *atomicFieldPass) overlayConversion(expr ast.Expr) (conv *ast.CallExpr, target string, inner ast.Expr) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil, "", nil
	}
	// The conversion target must be *atomic.T for a known T.
	tv, ok := af.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil, "", nil
	}
	ptr, ok := tv.Type.(*types.Pointer)
	if !ok {
		return nil, "", nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync/atomic" {
		return nil, "", nil
	}
	name := named.Obj().Name()
	if _, known := atomicAligns[name]; !known {
		return nil, "", nil
	}
	// The argument must be unsafe.Pointer(Y).
	up, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	if !ok || len(up.Args) != 1 {
		return nil, "", nil
	}
	utv, ok := af.Info.Types[up.Fun]
	if !ok || !utv.IsType() || utv.Type != types.Typ[types.UnsafePointer] {
		return nil, "", nil
	}
	return call, name, ast.Unparen(up.Args[0])
}

// indexOperands unwraps &b[off] into (b, off); anything else returns nils.
func indexOperands(expr ast.Expr) (slice, offset ast.Expr) {
	un, ok := ast.Unparen(expr).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil, nil
	}
	ix, ok := ast.Unparen(un.X).(*ast.IndexExpr)
	if !ok {
		return nil, nil
	}
	return ast.Unparen(ix.X), ast.Unparen(ix.Index)
}

// paramIndex resolves expr to one of fd's parameters, returning its flat
// index, or -1.
func paramIndex(info *types.Info, fd *ast.FuncDecl, expr ast.Expr) int {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return -1
	}
	obj := info.Uses[id]
	if obj == nil {
		return -1
	}
	idx := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if info.Defs[name] == obj {
				return idx
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	return -1
}

// collectAtomicAccesses walks one file recording (a) variables whose address
// reaches sync/atomic functions, (b) overlay conversions and helper calls,
// checking their alignment obligations as it goes.
func (af *atomicFieldPass) collectAtomicAccesses(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// sync/atomic free function taking &x: the word becomes atomic.
		if obj := exprObj(af.Info, call.Fun); obj != nil {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
				for _, arg := range call.Args {
					af.recordAtomicArg(arg)
				}
				return true
			}
			// Overlay-helper call: the offset argument must be an aligned
			// constant.
			if fn, ok := obj.(*types.Func); ok {
				if h, isHelper := af.helpers[fn]; isHelper {
					af.overlaySpan = append(af.overlaySpan, span{lo: call.Pos(), hi: call.End()})
					af.checkHelperCall(call, h)
					return true
				}
			}
		}
		// Direct overlay conversion outside a helper.
		if conv, target, inner := af.overlayConversion(call); conv != nil && !af.inOverlaySpan(conv.Pos()) {
			af.overlaySpan = append(af.overlaySpan, span{lo: conv.Pos(), hi: conv.End()})
			af.checkDirectOverlay(conv, target, inner)
		}
		return true
	})
}

// recordAtomicArg notes the variable behind an &x or &x.f argument of a
// sync/atomic call.
func (af *atomicFieldPass) recordAtomicArg(arg ast.Expr) {
	un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return
	}
	var id *ast.Ident
	switch x := ast.Unparen(un.X).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return
	}
	v, ok := af.Info.Uses[id].(*types.Var)
	if !ok {
		return
	}
	af.atomicVars[v] = append(af.atomicVars[v], un.Pos())
	af.atomicUses[id] = true
}

// checkHelperCall enforces the aligned-constant-offset obligation at an
// overlay-helper call site.
func (af *atomicFieldPass) checkHelperCall(call *ast.CallExpr, h overlayHelper) {
	if h.offsetParam >= len(call.Args) {
		return
	}
	arg := call.Args[h.offsetParam]
	af.checkOffset(arg, h.align, h.target)
}

// checkDirectOverlay enforces the obligation on an inline overlay: the inner
// expression must be &b[konst] with konst aligned.
func (af *atomicFieldPass) checkDirectOverlay(conv *ast.CallExpr, target string, inner ast.Expr) {
	_, offset := indexOperands(inner)
	if offset == nil {
		af.Reportf(conv.Pos(),
			"atomic.%s overlay on raw bytes without a provable offset: overlay &b[const] with const %% %d == 0, or justify with //lint:ignore atomicfield",
			target, atomicAligns[target])
		return
	}
	af.checkOffset(offset, atomicAligns[target], target)
}

// checkOffset requires expr to be a constant multiple of align.
func (af *atomicFieldPass) checkOffset(expr ast.Expr, align int64, target string) {
	tv, ok := af.Info.Types[expr]
	if !ok || tv.Value == nil {
		af.Reportf(expr.Pos(),
			"atomic.%s overlay offset is not a constant: alignment (%% %d == 0) cannot be proven — pass a named constant offset or justify with //lint:ignore atomicfield",
			target, align)
		return
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	if !ok {
		return
	}
	if align > 1 && v%align != 0 {
		af.Reportf(expr.Pos(),
			"atomic.%s overlay at offset %d breaks the %%%d alignment sync/atomic requires — a torn or faulting access on some platforms",
			target, v, align)
		return
	}
	// A well-aligned constant offset designates an atomic word; remember
	// named constants so stray non-atomic uses of the same word are caught.
	if id, ok := ast.Unparen(expr).(*ast.Ident); ok {
		if c, ok := af.Info.Uses[id].(*types.Const); ok {
			if _, seen := af.offsetConsts[c]; !seen {
				af.offsetConsts[c] = expr.Pos()
			}
		}
	}
}

// inOverlaySpan reports whether pos falls inside a recorded overlay
// expression.
func (af *atomicFieldPass) inOverlaySpan(pos token.Pos) bool {
	for _, s := range af.overlaySpan {
		if s.contains(pos) {
			return true
		}
	}
	return false
}

// reportMixedAccesses flags every non-atomic use of a variable the package
// also accesses atomically.
func (af *atomicFieldPass) reportMixedAccesses(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || af.atomicUses[id] {
			return true
		}
		v, ok := af.Info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		accesses, isAtomic := af.atomicVars[v]
		if !isAtomic {
			return true
		}
		af.Reportf(id.Pos(),
			"non-atomic access to %s, which is accessed with sync/atomic at %s — a data race the race detector only sees on the right interleaving",
			v.Name(), af.Fset.Position(accesses[0]))
		return true
	})
}

// reportConstMisuse flags uses of overlay-offset constants outside overlay
// expressions: reading the same word through encoding/binary or plain
// indexing bypasses the atomic.
func (af *atomicFieldPass) reportConstMisuse(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		c, ok := af.Info.Uses[id].(*types.Const)
		if !ok {
			return true
		}
		overlayPos, isOffset := af.offsetConsts[c]
		if !isOffset || af.inOverlaySpan(id.Pos()) {
			return true
		}
		af.Reportf(id.Pos(),
			"offset %s names an atomic word (overlaid at %s); accessing it outside an atomic overlay bypasses the atomic",
			c.Name(), af.Fset.Position(overlayPos))
		return true
	})
}
