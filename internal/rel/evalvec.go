package rel

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/gdk"
	"repro/internal/types"
)

// The engine has one scalar evaluator: the gdk calculator kernels. Queries
// reach them through MAL; DML WHERE masks and SET values, constant folding,
// DEFAULT clauses, dimension ranges, LIMIT/OFFSET and INSERT VALUES reach
// them through evalVec below, constants at n=1. Scalar contexts therefore
// share the kernels' semantics (three-valued logic, NULL propagation,
// division-by-zero and domain errors, casts) by construction.

// EvalConst evaluates a constant expression (no column or cell
// references). A bare literal is returned as is, without building a
// column.
func EvalConst(e Expr) (types.Value, error) {
	if c, ok := e.(*Const); ok {
		return c.Val, nil
	}
	if !isConstTree(e) {
		return types.Value{}, fmt.Errorf("expression is not constant")
	}
	o, err := evalVec(nil, 1, e)
	if err != nil {
		return types.Value{}, err
	}
	if o.IsConst() {
		return o.ConstValue(), nil
	}
	return o.BAT().Get(0), nil
}

// EvalBAT evaluates a bound scalar expression over aligned physical
// columns of n rows and materialises the result as a column. DML
// statements use it to compute WHERE masks and SET values directly over
// table/array storage.
func EvalBAT(cols []*bat.BAT, n int, e Expr) (*bat.BAT, error) {
	o, err := evalVec(cols, n, e)
	if err != nil {
		return nil, err
	}
	if !o.IsConst() {
		return o.BAT(), nil
	}
	kind := o.ConstValue().Kind()
	if kind == types.KindVoid {
		kind = e.Kind()
	}
	if kind == types.KindVoid {
		kind = types.KindInt
	}
	b, err := bat.Filler(n, o.ConstValue(), kind)
	if err != nil {
		// Fall back to a null column of the requested kind.
		b, _ = bat.Filler(n, types.NullUnknown(), kind)
	}
	return b, nil
}

// evalVec evaluates e over aligned columns, returning a column operand or,
// for a literal, a scalar broadcast to n rows.
func evalVec(cols []*bat.BAT, n int, e Expr) (gdk.Opnd, error) {
	var out *bat.BAT
	var err error
	switch x := e.(type) {
	case *Col:
		if x.Idx < 0 || x.Idx >= len(cols) {
			return gdk.Opnd{}, fmt.Errorf("column ordinal %d out of range", x.Idx)
		}
		return gdk.B(cols[x.Idx]), nil
	case *Const:
		return gdk.C(x.Val, n), nil
	case *Bin:
		var l, r gdk.Opnd
		if l, err = evalVec(cols, n, x.L); err != nil {
			return gdk.Opnd{}, err
		}
		if r, err = evalVec(cols, n, x.R); err != nil {
			return gdk.Opnd{}, err
		}
		out, err = gdk.Binary(x.Op, l, r, nil)
	case *Un:
		var xe gdk.Opnd
		if xe, err = evalVec(cols, n, x.X); err != nil {
			return gdk.Opnd{}, err
		}
		out, err = gdk.Unary(x.Op, xe, nil)
	case *IfElse:
		var c, t, f gdk.Opnd
		if c, err = evalVec(cols, n, x.Cond); err != nil {
			return gdk.Opnd{}, err
		}
		if t, err = evalVec(cols, n, x.Then); err != nil {
			return gdk.Opnd{}, err
		}
		if f, err = evalVec(cols, n, x.Else); err != nil {
			return gdk.Opnd{}, err
		}
		out, err = gdk.IfThenElse(c, t, f, nil)
	case *Cast:
		var xe gdk.Opnd
		if xe, err = evalVec(cols, n, x.X); err != nil {
			return gdk.Opnd{}, err
		}
		out, err = gdk.CastBAT(xe, x.To, nil)
	case *Substr:
		var s, from, forO gdk.Opnd
		if s, err = evalVec(cols, n, x.X); err != nil {
			return gdk.Opnd{}, err
		}
		if from, err = evalVec(cols, n, x.From); err != nil {
			return gdk.Opnd{}, err
		}
		if forO, err = evalVec(cols, n, x.For); err != nil {
			return gdk.Opnd{}, err
		}
		out, err = gdk.Substring(s, from, forO, nil)
	case *CellFetch:
		coords := make([]*bat.BAT, len(x.Coords))
		for i, ce := range x.Coords {
			if coords[i], err = EvalBAT(cols, n, ce); err != nil {
				return gdk.Opnd{}, err
			}
		}
		out, err = gdk.CellFetch(x.A.AttrBats[x.AttrIdx], x.A.Shape, coords)
	default:
		return gdk.Opnd{}, fmt.Errorf("cannot evaluate expression %T", e)
	}
	if err != nil {
		return gdk.Opnd{}, err
	}
	return gdk.B(out), nil
}
