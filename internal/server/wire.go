package server

import (
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/types"
)

// The /query answer is written by hand, straight from the result's BAT
// slabs: no types.Value and no interface box per cell, and no
// encoding/json. The layout is
//
//	{"results":[R, ...],"error":"..."}
//
// where each R is
//
//	{"names":[...],"kinds":[...],"dims":[...],"rows":[[...],...],"affected":n,"text":"..."}
//
// with every member omitted when empty, as encoding/json's omitempty
// would: names and kinds only when the result has columns, dims only
// when one of them is a dimension, rows only when there is at least one.
// Cells are JSON numbers, strings, booleans or null, formatted as
// encoding/json formats int64, float64, string and bool, with one
// extension: a non-finite FLOAT cell, which JSON cannot carry as a
// number, is the string types.FormatFloat gives ("+Inf", "-Inf", "NaN").

// bufPool recycles response buffers. Only buffers of maxPooledBuf bytes
// or less go back, so one large answer does not pin its memory.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 64 << 10

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// appendResponse appends the /query body for results and, when err is
// not nil, the statement error that ended the batch.
func appendResponse(dst []byte, results []*core.Result, err error) []byte {
	dst = append(dst, '{')
	if len(results) > 0 {
		dst = append(dst, `"results":[`...)
		for i, r := range results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendResult(dst, r)
		}
		dst = append(dst, ']')
	}
	if err != nil {
		if len(results) > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"error":`...)
		dst = appendString(dst, err.Error())
	}
	return append(dst, "}\n"...)
}

// appendResult appends one statement result as a JSON object.
func appendResult(dst []byte, r *core.Result) []byte {
	dst = append(dst, '{')
	if len(r.Cols) > 0 {
		dst = append(dst, `"names":`...)
		dst = appendStrings(dst, r.Names, func(s string) string { return s })
		dst = append(dst, `,"kinds":`...)
		dst = appendStrings(dst, r.Kinds, types.Kind.String)
		if slices.Contains(r.Dims, true) {
			dst = append(dst, `,"dims":[`...)
			for i, d := range r.Dims {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendBool(dst, d)
			}
			dst = append(dst, ']')
		}
		if r.NumRows() > 0 {
			dst = append(dst, `,"rows":`...)
			dst = appendRows(dst, r)
		}
	}
	if r.Affected != 0 {
		dst = appendKey(dst, `"affected":`)
		dst = strconv.AppendInt(dst, int64(r.Affected), 10)
	}
	if r.Text != "" {
		dst = appendKey(dst, `"text":`)
		dst = appendString(dst, r.Text)
	}
	return append(dst, '}')
}

// appendKey appends an object member's key, after a comma unless it is
// the object's first member.
func appendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return append(dst, key...)
}

func appendStrings[T any](dst []byte, xs []T, str func(T) string) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, str(x))
	}
	return append(dst, ']')
}

// wireFormat writes float and string cells as JSON.
var wireFormat = core.CellFormat{Float: appendFloat, Str: appendString}

// appendRows appends the rows array, walking the columns slab by slab.
func appendRows(dst []byte, r *core.Result) []byte {
	n, start := r.NumRows(), len(dst)
	cols := make([]core.ColumnReader, len(r.Cols))
	for c := range cols {
		cols[c] = r.Reader(c)
	}
	dst = append(dst, '[')
	for s, done := 0, 0; s < cols[0].NumSlabs(); s++ {
		rows := 0
		for c := range cols {
			rows = cols[c].Load(s)
		}
		for i := 0; i < rows; i++ {
			if done+i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for c := range cols {
				if c > 0 {
					dst = append(dst, ',')
				}
				dst = cols[c].AppendCell(dst, i, wireFormat)
			}
			dst = append(dst, ']')
		}
		done += rows
		if s == 0 && rows < n {
			// Size the buffer for the remaining slabs from the first.
			need := (len(dst) - start) / rows * (n - rows)
			if cap(dst)-len(dst) < need {
				dst = append(make([]byte, 0, len(dst)+need+need/8), dst...)
			}
		}
	}
	return append(dst, ']')
}

// appendFloat formats f as encoding/json does: shortest round-trip
// digits, exponent form below 1e-6 and from 1e21 on, with a one-digit
// exponent kept short (1e-7, not 1e-07). Non-finite values become their
// types.FormatFloat string.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return strconv.AppendQuote(dst, types.FormatFloat(f))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hex = "0123456789abcdef"

// appendString appends s as a JSON string, escaping as encoding/json
// does apart from HTML characters, which pass through: quote, backslash
// and control characters are escaped, invalid UTF-8 becomes U+FFFD, and
// U+2028/U+2029 are escaped so the body is also valid JavaScript.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
