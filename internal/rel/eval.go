package rel

import "repro/internal/types"

// isConstTree reports whether the expression references no columns and no
// arrays (safe to fold at bind time).
func isConstTree(e Expr) bool {
	ok := true
	WalkExpr(e, func(x Expr) {
		switch x.(type) {
		case *Col, *CellFetch:
			ok = false
		}
	})
	return ok
}

// fold simplifies an expression: all-constant subtrees are evaluated, and
// boolean connectives with one constant side are reduced. Folding is
// best-effort: evaluation errors (division by zero) are left for runtime.
func fold(e Expr) Expr {
	switch x := e.(type) {
	case *Bin:
		if x.Op == "AND" || x.Op == "OR" {
			if c, ok := x.L.(*Const); ok {
				return foldLogic(x.Op, c.Val, x.R)
			}
			if c, ok := x.R.(*Const); ok {
				return foldLogic(x.Op, c.Val, x.L)
			}
		}
	case *IfElse:
		if c, ok := x.Cond.(*Const); ok {
			if !c.Val.IsNull() && c.Val.BoolVal() {
				return retyped(x.Then, x.K)
			}
			return retyped(x.Else, x.K)
		}
	}
	if isConstTree(e) {
		if v, err := EvalConst(e); err == nil {
			if v.IsNull() && v.Kind() == types.KindVoid && e.Kind() != types.KindVoid {
				return &Const{Val: types.Null(e.Kind())}
			}
			return &Const{Val: v}
		}
	}
	return e
}

// retyped casts a folded branch to the IfElse result kind when needed.
func retyped(e Expr, k types.Kind) Expr {
	if e.Kind() == k {
		return e
	}
	if c, ok := e.(*Const); ok {
		if v, err := c.Val.Cast(k); err == nil {
			return &Const{Val: v}
		}
	}
	return &Cast{X: e, To: k}
}

// foldLogic reduces AND/OR with one constant side, preserving three-valued
// semantics.
func foldLogic(op string, c types.Value, other Expr) Expr {
	if c.IsNull() {
		// null AND x = x ? no: null AND false = false, null AND true = null.
		// Not reducible without knowing x; keep the original shape.
		return &Bin{Op: op, L: &Const{Val: types.Null(types.KindBool)}, R: other, K: types.KindBool}
	}
	v := c.BoolVal()
	if op == "AND" {
		if v {
			return other
		}
		return &Const{Val: types.Bool(false)}
	}
	if v {
		return &Const{Val: types.Bool(true)}
	}
	return other
}
