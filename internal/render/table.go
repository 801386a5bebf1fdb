// Package render lays out query results as the engine's column-aligned
// text table. The embedded engine (core.Result.String) and the sciqld
// client (client.Result.String) both render through Table, so a result
// reads byte for byte the same on either side of the wire.
package render

import "unicode/utf8"

// Cells collects the formatted cells of a table, column by column. A
// filler appends a cell's text to Buf and then calls End.
type Cells struct {
	Buf  []byte
	ends []int // end offset in Buf of each cell, column-major
}

// End closes the cell whose text was appended to Buf since the last End.
func (c *Cells) End() { c.ends = append(c.ends, len(c.Buf)) }

// Table appends the layout of a result with the given column names and
// rows rows to dst:
//
//	a   | [x]
//	----+----
//	1   | 0
//
// Dimension columns (dims[c], when dims is long enough) have their name
// bracketed. fill(c, cells) must add exactly rows cells for column c.
// Every column is as wide in bytes as its longest text, and each text is
// padded with spaces up to that width counted in runes.
func Table(dst []byte, names []string, dims []bool, rows int, fill func(c int, cells *Cells)) []byte {
	cells := Cells{ends: make([]int, 0, rows*len(names))}
	widths := make([]int, len(names))
	line := 1 + 3*max(len(names)-1, 0) // newline plus separators
	for c, name := range names {
		w := len(name)
		if c < len(dims) && dims[c] {
			w += 2
		}
		first := len(cells.ends)
		fill(c, &cells)
		if len(cells.ends)-first != rows {
			panic("render: a column filled the wrong number of cells")
		}
		prev := 0
		if first > 0 {
			prev = cells.ends[first-1]
		}
		for _, end := range cells.ends[first:] {
			w = max(w, end-prev)
			prev = end
		}
		widths[c] = w
		line += w
	}
	if n := (rows + 2) * line; cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}

	for c, name := range names {
		if c > 0 {
			dst = append(dst, " | "...)
		}
		start := len(dst)
		if c < len(dims) && dims[c] {
			dst = append(append(append(dst, '['), name...), ']')
		} else {
			dst = append(dst, name...)
		}
		dst = pad(dst, start, widths[c])
	}
	dst = append(dst, '\n')
	for c := range names {
		if c > 0 {
			dst = append(dst, "-+-"...)
		}
		for i := 0; i < widths[c]; i++ {
			dst = append(dst, '-')
		}
	}
	dst = append(dst, '\n')
	for i := 0; i < rows; i++ {
		for c := range names {
			if c > 0 {
				dst = append(dst, " | "...)
			}
			k := c*rows + i
			lo := 0
			if k > 0 {
				lo = cells.ends[k-1]
			}
			start := len(dst)
			dst = append(dst, cells.Buf[lo:cells.ends[k]]...)
			dst = pad(dst, start, widths[c])
		}
		dst = append(dst, '\n')
	}
	return dst
}

// pad appends spaces until the text dst[start:] is width runes long.
func pad(dst []byte, start, width int) []byte {
	n := len(dst) - start
	for _, b := range dst[start:] {
		if b >= utf8.RuneSelf {
			n = utf8.RuneCount(dst[start:])
			break
		}
	}
	for ; n < width; n++ {
		dst = append(dst, ' ')
	}
	return dst
}
