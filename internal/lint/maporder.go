package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags `range` over a map whose body leaks the (randomized)
// iteration order into observable state: emitting output, appending
// to a slice that is never sorted, scheduling simulated events, or
// feeding a non-commutative accumulator. Go deliberately randomizes
// map iteration, so any of these makes two runs of the same
// experiment diverge. The canonical fix is the collect/sort/index
// idiom:
//
//	keys := make([]K, 0, len(m))
//	for k := range m {
//	    keys = append(keys, k)
//	}
//	sort.Slice(keys, ...)        // or sort.Strings / slices.Sort
//	for _, k := range keys { ... use m[k] ... }
//
// which the analyzer recognises and does not flag. Purely commutative
// bodies — integer sums, building another map keyed by the loop
// variable, per-key deletes — are also fine.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "forbid map-range bodies that leak Go's randomized iteration order\n\n" +
		"Output, unsorted slice appends, event scheduling, and " +
		"non-commutative accumulation inside a map range make replay " +
		"nondeterministic; iterate a sorted key slice instead.",
	Run: runMapOrder,
}

const mapOrderFix = "iterate a sorted key slice instead (collect keys, sort, index the map)"

func runMapOrder(pass *Pass) error {
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
				checkMapRanges(pass, body)
			}
			return true
		})
	}
	return nil
}

// checkMapRanges inspects the map-range statements belonging directly
// to this function body. Nested function literals are skipped here;
// the outer Inspect visits them as functions in their own right.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, rng, body)
		return true
	})
}

// checkMapRangeBody classifies the body of one map-range statement
// and reports the first order-leaking construct found.
func checkMapRangeBody(pass *Pass, rng *ast.RangeStmt, funcBody *ast.BlockStmt) {
	info := pass.TypesInfo
	loopVars := rangeLoopVars(info, rng)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil && fn.Pkg() != nil {
				if fn.Pkg().Path() == "fmt" && (strings.HasPrefix(fn.Name(), "Print") ||
					strings.HasPrefix(fn.Name(), "Fprint")) {
					pass.Reportf(n.Pos(),
						"fmt.%s inside a map range emits output in randomized order; %s",
						fn.Name(), mapOrderFix)
					return true
				}
				if fn.Pkg().Path() == SimKernelPath {
					pass.Reportf(n.Pos(),
						"call into the DES kernel (%s.%s) inside a map range schedules "+
							"events in randomized order; %s",
						fn.Pkg().Name(), fn.Name(), mapOrderFix)
					return true
				}
			}
			checkWriterCall(pass, rng, n)
		case *ast.AssignStmt:
			checkRangeAssign(pass, rng, funcBody, loopVars, n)
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside a map range publishes values in randomized order; %s",
				mapOrderFix)
		}
		return true
	})
}

// checkWriterCall flags method calls inside a map range that append
// to position-significant output owned outside the loop: the
// Write/WriteString/... family (strings.Builder, bytes.Buffer,
// io.Writer) and every accessor of the checkpoint codec, snap.Codec.
// Each iteration appends to shared output, so the order of iterations
// is the order of the output — for the snap codec that means the
// snapshot bytes themselves become schedule lottery (and a load reads
// them back into randomly ordered targets).
func checkWriterCall(pass *Pass, rng *ast.RangeStmt, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn := calleeFunc(pass.TypesInfo, call)
	snapCodec := fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == SnapCodecPath &&
		recvTypeName(fn) == "Codec"
	if !snapCodec {
		switch sel.Sel.Name {
		case "Write", "WriteString", "WriteByte", "WriteRune":
		default:
			return
		}
	}
	if _, isMethod := pass.TypesInfo.Selections[sel]; !isMethod {
		return
	}
	obj := baseObject(pass.TypesInfo, sel.X)
	if obj == nil || declaredWithin(obj, rng) {
		return
	}
	if snapCodec {
		pass.Reportf(call.Pos(),
			"snap codec %s.%s inside a map range encodes map-keyed state in randomized "+
				"order, so the snapshot bytes differ run to run; %s",
			obj.Name(), sel.Sel.Name, mapOrderFix)
		return
	}
	pass.Reportf(call.Pos(),
		"%s.%s inside a map range accumulates output in randomized order; %s",
		obj.Name(), sel.Sel.Name, mapOrderFix)
}

// checkRangeAssign flags appends to outer slices that are never
// sorted afterwards, and non-commutative compound assignments to
// outer accumulators.
func checkRangeAssign(pass *Pass, rng *ast.RangeStmt, funcBody *ast.BlockStmt, loopVars []types.Object, assign *ast.AssignStmt) {
	info := pass.TypesInfo
	for i, rhs := range assign.Rhs {
		if i >= len(assign.Lhs) {
			break
		}
		lhs := assign.Lhs[i]
		// append to a slice declared outside the loop
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltin(info, call, "append") {
			obj := baseObject(info, lhs)
			if obj == nil || declaredWithin(obj, rng) {
				continue
			}
			if sortedAfter(pass, funcBody, rng, obj) {
				continue
			}
			pass.Reportf(assign.Pos(),
				"append to %q inside a map range records randomized iteration order "+
					"and %q is never sorted afterwards; sort it before use, or %s",
				obj.Name(), obj.Name(), mapOrderFix)
		}
	}
	if len(assign.Lhs) != 1 {
		return
	}
	lhs := assign.Lhs[0]
	obj := baseObject(info, lhs)
	if obj == nil || declaredWithin(obj, rng) {
		return
	}
	// Accumulation keyed by the loop variable (counts[k] += v) is
	// per-key and therefore commutative across iteration orders.
	if indexUsesLoopVar(info, lhs, loopVars) {
		return
	}
	tv, ok := info.Types[lhs]
	if !ok || tv.Type == nil {
		return
	}
	if reason := nonCommutative(assign.Tok, tv.Type); reason != "" {
		pass.Reportf(assign.Pos(),
			"%s accumulation into %q inside a map range is %s, so the result "+
				"depends on randomized iteration order; %s",
			assign.Tok, obj.Name(), reason, mapOrderFix)
	}
}

// nonCommutative classifies a compound assignment: which (op, element
// type) pairs give results that depend on evaluation order. Integer
// +=, -=, *=, |=, &=, ^= are exact and commutative; floating-point
// arithmetic is non-associative, string += is concatenation, and
// division/shift/clear depend on operand order outright.
func nonCommutative(tok token.Token, t types.Type) string {
	basic, ok := t.Underlying().(*types.Basic)
	if !ok {
		return ""
	}
	fp := basic.Info()&(types.IsFloat|types.IsComplex) != 0
	switch tok {
	case token.ADD_ASSIGN:
		if basic.Info()&types.IsString != 0 {
			return "string concatenation"
		}
		if fp {
			return "floating-point addition (non-associative)"
		}
	case token.SUB_ASSIGN, token.MUL_ASSIGN:
		if fp {
			return "floating-point arithmetic (non-associative)"
		}
	case token.QUO_ASSIGN, token.REM_ASSIGN:
		return "division/remainder (order-dependent)"
	case token.SHL_ASSIGN, token.SHR_ASSIGN:
		return "a shift (order-dependent)"
	case token.AND_NOT_ASSIGN:
		return "bit-clear (order-dependent)"
	}
	return ""
}

// sortedAfter reports whether obj is passed to a sort.* or slices.*
// call somewhere after the range statement in the enclosing function
// body — the collect/sort/index idiom.
func sortedAfter(pass *Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if baseObject(pass.TypesInfo, arg) == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// rangeLoopVars returns the objects of the key/value variables bound
// by the range statement (nil entries skipped).
func rangeLoopVars(info *types.Info, rng *ast.RangeStmt) []types.Object {
	var vars []types.Object
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				vars = append(vars, obj)
			} else if obj := info.Uses[id]; obj != nil { // `=` form
				vars = append(vars, obj)
			}
		}
	}
	return vars
}

// indexUsesLoopVar reports whether lhs is an index expression whose
// index mentions one of the loop variables.
func indexUsesLoopVar(info *types.Info, lhs ast.Expr, loopVars []types.Object) bool {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return false
	}
	uses := false
	ast.Inspect(idx.Index, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := info.Uses[id]
			for _, lv := range loopVars {
				if obj == lv {
					uses = true
				}
			}
		}
		return !uses
	})
	return uses
}

// baseObject resolves the root identifier of an lvalue-ish expression
// (x, x.f, x[i], *x, combinations) to its object.
func baseObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[v]
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside the
// range statement (per-iteration state cannot leak order).
func declaredWithin(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()
}

// isBuiltin reports whether call invokes the named universe builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
