package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bat"
	"repro/internal/gdk"
	"repro/internal/mal"
	"repro/internal/render"
	"repro/internal/shape"
	"repro/internal/types"
)

// Result is the outcome of one statement. Query results carry aligned
// columns; when the projection contains SciQL dimensional items `[expr]`
// the result is an array (IsArray) with a concrete Shape: the columns are
// then cell-aligned (dimension columns first, in Fig. 3 series layout).
type Result struct {
	Names []string
	Kinds []types.Kind
	Dims  []bool
	Cols  []*bat.BAT

	IsArray bool
	Shape   shape.Shape

	// Affected is the row/cell count touched by a DML statement.
	Affected int
	// Text carries EXPLAIN/PLAN and status output.
	Text string
}

func textResult(s string) *Result { return &Result{Text: s} }

func statusResult(format string, args ...any) *Result {
	return &Result{Text: fmt.Sprintf(format, args...)}
}

// NumRows returns the number of rows (cells for array results).
func (r *Result) NumRows() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return r.Cols[0].Len()
}

// NumCols returns the number of columns.
func (r *Result) NumCols() int { return len(r.Cols) }

// Value returns the value at (row, col).
func (r *Result) Value(row, col int) types.Value { return r.Cols[col].Get(row) }

// Row returns one row as values.
func (r *Result) Row(i int) []types.Value {
	out := make([]types.Value, len(r.Cols))
	for c := range r.Cols {
		out[c] = r.Cols[c].Get(i)
	}
	return out
}

// assembleResult converts an executed MAL program into a Result, applying
// SciQL table→array coercion when the projection has dimensional items.
func assembleResult(prog *mal.Program, ctx *mal.Ctx) (*Result, error) {
	res := &Result{
		Names: prog.ResultNames,
		Kinds: prog.ResultKinds,
		Dims:  prog.ResultDims,
	}
	for _, v := range prog.ResultVars {
		b, ok := ctx.Vars[v].(*bat.BAT)
		if !ok {
			return nil, fmt.Errorf("result variable X_%d is not a column", v)
		}
		res.Cols = append(res.Cols, b)
	}
	hasDims := false
	for _, d := range res.Dims {
		if d {
			hasDims = true
		}
	}
	if !hasDims {
		return res, nil
	}
	return coerceToArray(res, prog.ShapeHint)
}

// coerceToArray builds an array result: dimension bounds come from the
// preserved shape hint when available, otherwise they are derived from the
// dimension columns (§2: "an unbounded array with actual size derived from
// the dimension column expressions"). Cells not present in the rows stay
// NULL; duplicate positions keep the last row.
func coerceToArray(r *Result, hint shape.Shape) (*Result, error) {
	var dimIdx, attrIdx []int
	for i, d := range r.Dims {
		if d {
			dimIdx = append(dimIdx, i)
		} else {
			attrIdx = append(attrIdx, i)
		}
	}
	n := r.NumRows()
	// Derive the shape.
	var sh shape.Shape
	if hint != nil && len(hint) == len(dimIdx) {
		sh = hint
	} else {
		sh = make(shape.Shape, len(dimIdx))
		for k, ci := range dimIdx {
			col := r.Cols[ci]
			if col.ValueKind() != types.KindInt && col.ValueKind() != types.KindOID {
				return nil, fmt.Errorf("dimension column %q must be integer, got %s", r.Names[ci], col.ValueKind())
			}
			var lo, hi int64
			seen := false
			for i := 0; i < n; i++ {
				if col.IsNull(i) {
					return nil, fmt.Errorf("NULL value in dimension column %q", r.Names[ci])
				}
				v := col.Get(i).Int64()
				if !seen {
					lo, hi, seen = v, v, true
				} else {
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
			}
			if !seen {
				lo, hi = 0, -1 // empty array
			}
			step := inferStep(col, lo)
			sh[k] = shape.Dim{Name: r.Names[ci], Start: lo, Step: step, Stop: hi + step}
		}
	}

	out := &Result{IsArray: true, Shape: sh}
	cells := sh.Cells()
	// Dimension columns in series layout.
	dims, err := gdk.DimBATs(sh)
	if err != nil {
		return nil, err
	}
	for k, ci := range dimIdx {
		out.Names = append(out.Names, r.Names[ci])
		out.Kinds = append(out.Kinds, types.KindInt)
		out.Dims = append(out.Dims, true)
		out.Cols = append(out.Cols, dims[k])
	}
	// Attribute columns: scatter rows into cells.
	coords := make([]int64, len(dimIdx))
	for _, ci := range attrIdx {
		col := r.Cols[ci]
		cell, err := bat.Filler(cells, types.NullUnknown(), col.ValueKind())
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			for k, di := range dimIdx {
				coords[k] = r.Cols[di].Get(i).Int64()
			}
			p, ok := sh.Pos(coords)
			if !ok {
				// Rows outside the hinted shape are dropped (they fall outside
				// the array's dimension ranges).
				continue
			}
			if col.IsNull(i) {
				cell.SetNull(p, true)
			} else if err := cell.Replace(p, col.Get(i)); err != nil {
				return nil, err
			}
		}
		out.Names = append(out.Names, r.Names[ci])
		out.Kinds = append(out.Kinds, col.ValueKind())
		out.Dims = append(out.Dims, false)
		out.Cols = append(out.Cols, cell)
	}
	return out, nil
}

// inferStep derives a dimension step from the column values: the GCD of
// all offsets from the minimum (1 when indeterminate).
func inferStep(col *bat.BAT, lo int64) int64 {
	g := int64(0)
	for i := 0; i < col.Len(); i++ {
		d := col.Get(i).Int64() - lo
		if d < 0 {
			d = -d
		}
		g = gcd(g, d)
	}
	if g == 0 {
		return 1
	}
	return g
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// String renders the result: DML/status text, or a column-aligned table.
func (r *Result) String() string {
	if r.Text != "" {
		return r.Text
	}
	return string(render.Table(nil, r.Names, r.Dims, r.NumRows(), r.fillColumn))
}

// textFormat writes cells as types.Value.String does.
var textFormat = CellFormat{
	Float: types.AppendFloat,
	Str:   func(dst []byte, s string) []byte { return append(dst, s...) },
}

// fillColumn formats every cell of column c for the text table.
func (r *Result) fillColumn(c int, cells *render.Cells) {
	cr := r.Reader(c)
	for s := 0; s < cr.NumSlabs(); s++ {
		for i, n := 0, cr.Load(s); i < n; i++ {
			cells.Buf = cr.AppendCell(cells.Buf, i, textFormat)
			cells.End()
		}
	}
}

// ColumnReader reads one result column slab by slab as typed values,
// with no types.Value per cell. Result.String and sciqld's wire encoder
// both read through it.
//
// A result's columns share storage with the table or snapshot they came
// from. Plain slabs are borrowed from that storage; encoded slabs decode
// into the reader's own buffers, and a borrowed slab never becomes one,
// so decoding a slab cannot write over another slab's stored values.
type ColumnReader struct {
	col   *bat.BAT
	kind  types.Kind
	nulls bool
	start int // column row of the loaded slab's first row

	ints   []int64
	floats []float64
	bools  []bool
	strs   []string

	intBuf   []int64
	floatBuf []float64
	strBuf   []string
}

// CellFormat says how AppendCell writes floats and strings, whose text
// depends on the output. NULL is always null, and ints and bools are
// written as strconv writes them.
type CellFormat struct {
	Float func(dst []byte, f float64) []byte
	Str   func(dst []byte, s string) []byte
}

// Reader returns a reader over column c.
func (r *Result) Reader(c int) ColumnReader {
	col := r.Cols[c]
	return ColumnReader{col: col, kind: col.Kind(), nulls: col.HasNulls()}
}

// NumSlabs returns the number of slabs in the column. Every column of a
// result has the same length, so slab s covers the same rows in each.
func (cr *ColumnReader) NumSlabs() int { return cr.col.NumSlabs() }

// Load makes slab s the current one and returns its number of rows.
func (cr *ColumnReader) Load(s int) int {
	v := cr.col.Slab(s)
	cr.start = v.Start()
	// Void slabs materialise into the buffer; plain slabs are borrowed.
	decoded := v.Enc() != bat.EncPlain || cr.kind == types.KindVoid
	switch cr.kind {
	case types.KindFloat:
		cr.floats = v.Floats(cr.floatBuf)
		if decoded {
			cr.floatBuf = cr.floats
		}
	case types.KindBool:
		cr.bools = v.Bools()
	case types.KindStr:
		cr.strs = v.Strs(cr.strBuf)
		if decoded {
			cr.strBuf = cr.strs
		}
	default: // void, oid, int
		cr.ints = v.Ints(cr.intBuf)
		if decoded {
			cr.intBuf = cr.ints
		}
	}
	return v.Len()
}

// AppendCell appends the text of row i of the current slab.
func (cr *ColumnReader) AppendCell(dst []byte, i int, f CellFormat) []byte {
	switch {
	case cr.nulls && cr.col.IsNull(cr.start+i):
		return append(dst, "null"...)
	case cr.kind == types.KindFloat:
		return f.Float(dst, cr.floats[i])
	case cr.kind == types.KindBool:
		return strconv.AppendBool(dst, cr.bools[i])
	case cr.kind == types.KindStr:
		return f.Str(dst, cr.strs[i])
	default:
		return strconv.AppendInt(dst, cr.ints[i], 10)
	}
}

// Grid renders a 2-D single-attribute array result as a coordinate grid
// (rows = second dimension descending, like the paper's Fig. 1), with
// "null" for holes.
func (r *Result) Grid() (string, error) {
	if !r.IsArray || len(r.Shape) != 2 {
		return "", fmt.Errorf("grid rendering needs a 2-D array result")
	}
	attr := -1
	for i, d := range r.Dims {
		if !d {
			if attr >= 0 {
				return "", fmt.Errorf("grid rendering needs exactly one attribute")
			}
			attr = i
		}
	}
	if attr < 0 {
		return "", fmt.Errorf("grid rendering needs an attribute column")
	}
	col := r.Cols[attr]
	dx, dy := r.Shape[0], r.Shape[1]
	var sb strings.Builder
	for yi := dy.N() - 1; yi >= 0; yi-- {
		y := dy.Value(yi)
		vals := make([]string, dx.N())
		for xi := 0; xi < dx.N(); xi++ {
			p, _ := r.Shape.Pos([]int64{dx.Value(xi), y})
			vals[xi] = col.Get(p).String()
		}
		fmt.Fprintf(&sb, "y=%-4d %s\n", y, strings.Join(vals, "\t"))
	}
	return sb.String(), nil
}
