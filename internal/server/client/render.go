package client

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/render"
	"repro/internal/types"
)

// String renders the result byte for byte as the embedded engine's
// core.Result.String does: the status text, or the column-aligned table.
func (r *Result) String() string {
	if r.Text != "" {
		return r.Text
	}
	return string(render.Table(nil, r.Names, r.Dims, len(r.Rows), r.fillColumn))
}

// fillColumn formats column c of every row; INT/OID columns print their
// float64 cells as integers, as the engine prints the int64 it holds.
func (r *Result) fillColumn(c int, cells *render.Cells) {
	ints := c < len(r.Kinds) && intKind(r.Kinds[c])
	for _, row := range r.Rows {
		if c < len(row) {
			cells.Buf = appendCell(cells.Buf, row[c], ints)
		}
		cells.End()
	}
}

func appendCell(dst []byte, v any, ints bool) []byte {
	switch v := v.(type) {
	case nil:
		return append(dst, "null"...)
	case float64:
		if ints && v == math.Trunc(v) && v >= -1<<63 && v < 1<<63 {
			return strconv.AppendInt(dst, int64(v), 10)
		}
		return types.AppendFloat(dst, v)
	case int64:
		return strconv.AppendInt(dst, v, 10)
	case string:
		return append(dst, v...)
	case bool:
		return strconv.AppendBool(dst, v)
	}
	return fmt.Append(dst, v)
}
