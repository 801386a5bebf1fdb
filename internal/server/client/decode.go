package client

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/types"
)

// The /query answer is decoded by a hand-written parser instead of
// encoding/json's reflection. It accepts only JSON, and whatever it
// accepts it decodes as encoding/json would into the same Go types:
// unknown members are skipped, null leaves a member zero, and invalid
// UTF-8 and lone surrogates become U+FFFD. It refuses what the server
// never sends: a member given twice, a member name spelled other than
// in lowercase (which encoding/json would match case-insensitively), and
// a row cell that is an object or an array. It extends encoding/json in
// two ways: an INT/OID cell that no float64 holds exactly decodes to
// int64, and a FLOAT cell sent as "+Inf", "-Inf" or "NaN" decodes to
// that float64. See Result.Rows.

// maxDepth bounds the nesting of skipped values, as encoding/json does.
const maxDepth = 10000

// Row cells are carved out of blocks that double from firstBlock to
// maxBlock cells, so small answers stay small and large ones cost a
// handful of allocations.
const (
	firstBlock = 32
	maxBlock   = 1 << 13
)

// smallInts holds the boxed float64 values 0..len-1, shared by every
// decoded cell with such a value instead of boxing each one anew (array
// coordinates are mostly small integers).
var smallInts [1024]any

func init() {
	for i := range smallInts {
		smallInts[i] = float64(i)
	}
}

type decoder struct {
	data    []byte
	pos     int
	scratch []byte // unescaped text of the last string with escapes
	row     []any  // cells of the row being parsed
	block   []any  // unused tail of the current row block
	next    int    // size of the next row block
	special bool   // some cell needs kindCells (int64 or non-finite string)
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("invalid JSON at offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the next byte after whitespace, or 0 at the end.
func (d *decoder) peek() byte {
	d.ws()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// end checks that only whitespace follows the value.
func (d *decoder) end() error {
	if d.peek() != 0 || d.pos < len(d.data) {
		return d.errorf("unexpected data after the top-level value")
	}
	return nil
}

func (d *decoder) literal(word string) error {
	if !bytes.HasPrefix(d.data[d.pos:], []byte(word)) {
		return d.errorf("invalid literal")
	}
	d.pos += len(word)
	return nil
}

// null consumes a null literal when one is next.
func (d *decoder) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

// container parses an object ('{', each is called with every member's
// name, which stays valid until each parses the member's value) or an
// array ('[', each is called for every element).
func (d *decoder) container(open byte, each func(key []byte) error) error {
	if d.peek() != open {
		return d.errorf("want %q", open)
	}
	d.pos++
	close := byte(']')
	if open == '{' {
		close = '}'
	}
	if d.peek() == close {
		d.pos++
		return nil
	}
	for {
		var key []byte
		if open == '{' {
			if d.peek() != '"' {
				return d.errorf("want a member name")
			}
			var err error
			if key, err = d.str(); err != nil {
				return err
			}
			if d.peek() != ':' {
				return d.errorf("want ':'")
			}
			d.pos++
		}
		if err := each(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case close:
			d.pos++
			return nil
		default:
			return d.errorf("want ',' or %q", close)
		}
	}
}

// str parses a string and returns its text, which stays valid until the
// next call.
func (d *decoder) str() ([]byte, error) {
	d.pos++ // opening quote
	start := d.pos
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1], nil
		case c == '\\':
			return d.unescape(start)
		case c < 0x20:
			return nil, d.errorf("control character in string")
		case c < utf8.RuneSelf:
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && size == 1 {
				return d.unescape(start)
			}
			d.pos += size
		}
	}
	return nil, d.errorf("unterminated string")
}

// unescape finishes a string from d.pos that needs rewriting: escapes,
// invalid UTF-8.
func (d *decoder) unescape(start int) ([]byte, error) {
	b := append(d.scratch[:0], d.data[start:d.pos]...)
	defer func() { d.scratch = b[:0] }()
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return b, nil
		case c < 0x20:
			return nil, d.errorf("control character in string")
		case c < utf8.RuneSelf && c != '\\':
			b = append(b, c)
			d.pos++
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			b = utf8.AppendRune(b, r) // an invalid byte becomes U+FFFD
			d.pos += size
		default:
			if d.pos+1 >= len(d.data) {
				return nil, d.errorf("unterminated string")
			}
			e := d.data[d.pos+1]
			d.pos += 2
			switch e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := d.hex4(d.pos)
				if r < 0 {
					return nil, d.errorf("invalid \\u escape")
				}
				d.pos += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if d.pos+1 < len(d.data) && d.data[d.pos] == '\\' && d.data[d.pos+1] == 'u' {
						r2 = d.hex4(d.pos + 2)
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						d.pos += 6
						r = dec
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				return nil, d.errorf("invalid escape")
			}
		}
	}
	return nil, d.errorf("unterminated string")
}

// hex4 reads four hex digits at i, or returns -1.
func (d *decoder) hex4(i int) rune {
	if i+4 > len(d.data) {
		return -1
	}
	var r rune
	for _, c := range d.data[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// numberText consumes a number and returns its text and whether it is
// an integer (no fraction, no exponent).
func (d *decoder) numberText() ([]byte, bool, error) {
	start := d.pos
	digits := func() int {
		n := 0
		for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
			d.pos++
			n++
		}
		return n
	}
	if d.pos < len(d.data) && d.data[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.data) && d.data[d.pos] == '0':
		d.pos++
	case digits() == 0:
		return nil, false, d.errorf("invalid number")
	}
	isInt := true
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		isInt = false
		if digits() == 0 {
			return nil, false, d.errorf("invalid number")
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		isInt = false
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if digits() == 0 {
			return nil, false, d.errorf("invalid number")
		}
	}
	return d.data[start:d.pos], isInt, nil
}

// number parses a number cell: float64, or int64 for an integer no
// float64 holds exactly.
func (d *decoder) number() (any, error) {
	text, isInt, err := d.numberText()
	if err != nil {
		return nil, err
	}
	if isInt {
		neg := text[0] == '-'
		digits := text
		if neg {
			digits = text[1:]
		}
		if len(digits) <= 15 { // below 2^53: exact, no strconv needed
			var u uint64
			for _, c := range digits {
				u = u*10 + uint64(c-'0')
			}
			if !neg && u < uint64(len(smallInts)) {
				return smallInts[u], nil
			}
			f := float64(u)
			if neg {
				f = -f
			}
			return f, nil
		}
		if i, err := strconv.ParseInt(string(text), 10, 64); err == nil {
			if f := float64(i); f >= 1<<63 || int64(f) != i {
				d.special = true
				return i, nil
			}
		}
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		return nil, d.errorf("number %s out of range", text)
	}
	return f, nil
}

// skip consumes any value.
func (d *decoder) skip(depth int) error {
	if depth > maxDepth {
		return d.errorf("exceeded max depth")
	}
	switch c := d.peek(); c {
	case '{', '[':
		return d.container(c, func([]byte) error { return d.skip(depth + 1) })
	case '"':
		_, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	default:
		_, _, err := d.numberText()
		return err
	}
}

// list parses null (nil) or an array into a new slice, each element
// decoded by elem into its zero value.
func list[T any](d *decoder, elem func(*T) error) ([]T, error) {
	if isNull, err := d.null(); isNull || err != nil {
		return nil, err
	}
	out := []T{}
	err := d.container('[', func([]byte) error {
		var zero T
		out = append(out, zero)
		return elem(&out[len(out)-1])
	})
	return out, err
}

// member returns which of names an object member's key is, or "" for a
// member to skip. A key given twice, or spelled other than as in names
// but equal to one of them case-insensitively, is an error. seen records
// the names met so far, one bit each.
func (d *decoder) member(key []byte, names []string, seen *uint) (string, error) {
	for i, name := range names {
		if string(key) == name {
			if *seen&(1<<i) != 0 {
				return "", d.errorf("duplicate member %q", name)
			}
			*seen |= 1 << i
			return name, nil
		}
		if bytes.EqualFold(key, []byte(name)) {
			return "", d.errorf("member %q must be spelled %q", key, name)
		}
	}
	return "", nil
}

var (
	resultMembers   = []string{"names", "kinds", "dims", "rows", "affected", "text"}
	responseMembers = []string{"results", "error"}
)

// strElem parses a string list element; null leaves it empty.
func (d *decoder) strElem(p *string) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	if d.peek() != '"' {
		return d.errorf("want a string")
	}
	b, err := d.str()
	*p = string(b)
	return err
}

// boolElem parses a boolean list element; null leaves it false.
func (d *decoder) boolElem(p *bool) error {
	switch d.peek() {
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.errorf("want a boolean")
}

// rowElem parses one row: null, or an array of cells.
func (d *decoder) rowElem(p *[]any) error {
	if isNull, err := d.null(); isNull || err != nil {
		*p = nil
		return err
	}
	d.row = d.row[:0]
	err := d.container('[', func([]byte) error {
		v, err := d.cell()
		d.row = append(d.row, v)
		return err
	})
	*p = d.carve(d.row)
	return err
}

// cell parses one row cell.
func (d *decoder) cell() (any, error) {
	switch d.peek() {
	case '"':
		b, err := d.str()
		if err != nil {
			return nil, err
		}
		if _, ok := nonFinite(b); ok {
			d.special = true
		}
		return string(b), nil
	case 't':
		return true, d.literal("true")
	case 'f':
		return false, d.literal("false")
	case 'n':
		return nil, d.literal("null")
	case '{', '[':
		return nil, d.errorf("a row cell must be a scalar")
	default:
		return d.number()
	}
}

// carve copies a row's cells into the current block.
func (d *decoder) carve(cells []any) []any {
	n := len(cells)
	if n == 0 {
		return []any{}
	}
	if len(d.block) < n {
		if d.next == 0 {
			d.next = firstBlock
		}
		d.block = make([]any, max(n, d.next))
		d.next = min(2*d.next, maxBlock)
	}
	row := d.block[:n:n]
	copy(row, cells)
	d.block = d.block[n:]
	return row
}

// result parses one result object into the zero Result r (null leaves
// it zero).
func (d *decoder) result(r *Result) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	d.special = false
	var seen uint
	err := d.container('{', func(key []byte) error {
		name, err := d.member(key, resultMembers, &seen)
		if err != nil {
			return err
		}
		switch name {
		case "names":
			r.Names, err = list(d, d.strElem)
		case "kinds":
			r.Kinds, err = list(d, d.strElem)
		case "dims":
			r.Dims, err = list(d, d.boolElem)
		case "rows":
			r.Rows, err = list(d, d.rowElem)
		case "affected":
			if isNull, nerr := d.null(); nerr != nil || isNull {
				return nerr
			}
			text, isInt, nerr := d.numberText()
			if nerr != nil {
				return nerr
			}
			n, perr := strconv.ParseInt(string(text), 10, 0)
			if !isInt || perr != nil {
				return d.errorf("affected %s is not an int", text)
			}
			r.Affected = int(n)
		case "text":
			if isNull, nerr := d.null(); nerr != nil || isNull {
				return nerr
			}
			if d.peek() != '"' {
				return d.errorf("text must be a string")
			}
			var b []byte
			b, err = d.str()
			r.Text = string(b)
		default:
			err = d.skip(1)
		}
		return err
	})
	if err == nil && d.special {
		r.kindCells()
	}
	return err
}

// kindCells applies the two kind-directed extensions to the decoded
// cells once the column kinds are known (the kinds member may come after
// the rows): an int64 stays only in an INT/OID column and a non-finite
// float only in a FLOAT column; anywhere else they read as encoding/json
// reads them.
func (r *Result) kindCells() {
	for _, row := range r.Rows {
		for c, v := range row {
			kind := ""
			if c < len(r.Kinds) {
				kind = r.Kinds[c]
			}
			switch v := v.(type) {
			case int64:
				if !intKind(kind) {
					row[c] = float64(v)
				}
			case float64:
				if (math.IsInf(v, 0) || math.IsNaN(v)) && kind != "dbl" {
					row[c] = types.FormatFloat(v)
				}
			case string:
				if f, ok := nonFinite([]byte(v)); ok && kind == "dbl" {
					row[c] = f
				}
			}
		}
	}
}

// intKind reports whether a wire kind holds integers (lng, oid, void).
func intKind(kind string) bool { return kind == "lng" || kind == "oid" || kind == "void" }

// nonFinite decodes the strings the server sends for non-finite floats.
func nonFinite(b []byte) (float64, bool) {
	switch string(b) {
	case "+Inf":
		return math.Inf(1), true
	case "-Inf":
		return math.Inf(-1), true
	case "NaN":
		return math.NaN(), true
	}
	return 0, false
}

// UnmarshalJSON decodes one statement result with the package's
// hand-written parser (see Result.Rows for how cells decode), so
// encoding/json callers decode exactly as Client does. It resets r
// first; JSON null leaves r zero.
func (r *Result) UnmarshalJSON(data []byte) error {
	*r = Result{}
	d := decoder{data: data}
	if err := d.result(r); err != nil {
		return err
	}
	return d.end()
}

// decodeResponse decodes a /query body: the results and the error
// message of the batch.
func decodeResponse(data []byte) ([]Result, string, error) {
	d := &decoder{data: data}
	var results []Result
	var msg string
	if isNull, err := d.null(); err != nil || isNull {
		return nil, "", err
	}
	var seen uint
	err := d.container('{', func(key []byte) error {
		name, err := d.member(key, responseMembers, &seen)
		if err != nil {
			return err
		}
		switch name {
		case "results":
			results, err = list(d, d.result)
			return err
		case "error":
			if isNull, err := d.null(); err != nil || isNull {
				return err
			}
			if d.peek() != '"' {
				return d.errorf("error must be a string")
			}
			b, err := d.str()
			msg = string(b)
			return err
		}
		return d.skip(1)
	})
	if err != nil {
		return nil, "", err
	}
	return results, msg, d.end()
}
