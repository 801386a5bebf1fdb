// Package shape models the geometry of SciQL arrays: named dimensions with
// [start:step:stop) ranges and the row-major mapping between dimension
// coordinates and flat cell positions (the OIDs of the per-array BATs).
package shape

import (
	"fmt"
	"math"
)

// Dim is one array dimension: the arithmetic sequence
// start, start+step, ..., last value strictly below stop (for step > 0).
// SciQL ranges are right-open (§2 of the paper).
type Dim struct {
	Name  string
	Start int64
	Step  int64
	Stop  int64
}

// MaxCells bounds the cell count of any array shape. A larger shape is
// rejected when it is declared, altered, grown, loaded or replayed from
// the log, instead of driving an allocation the process cannot survive.
const MaxCells = 1 << 31

// N returns the number of valid coordinate values of the dimension.
func (d Dim) N() int {
	return int(min(d.extent(), math.MaxInt))
}

// extent counts the coordinate values in unsigned arithmetic, so ranges
// spanning most of the int64 domain cannot overflow.
func (d Dim) extent() uint64 {
	switch {
	case d.Step > 0 && d.Stop > d.Start:
		return (uint64(d.Stop)-uint64(d.Start)-1)/uint64(d.Step) + 1
	case d.Step < 0 && d.Stop < d.Start:
		return (uint64(d.Start)-uint64(d.Stop)-1)/-uint64(d.Step) + 1
	}
	return 0
}

// Contains reports whether v is a valid coordinate of the dimension.
func (d Dim) Contains(v int64) bool {
	_, ok := d.Index(v)
	return ok
}

// Index maps a coordinate value to its ordinal position within the
// dimension, reporting false when v is outside the range or off-step.
func (d Dim) Index(v int64) (int, bool) {
	if d.Step == 0 {
		return 0, false
	}
	diff := v - d.Start
	if diff%d.Step != 0 {
		return 0, false
	}
	i := diff / d.Step
	if i < 0 || i >= int64(d.N()) {
		return 0, false
	}
	return int(i), true
}

// Value returns the coordinate at ordinal position i (unchecked).
func (d Dim) Value(i int) int64 { return d.Start + int64(i)*d.Step }

// String renders the range in SciQL syntax.
func (d Dim) String() string {
	return fmt.Sprintf("%s[%d:%d:%d]", d.Name, d.Start, d.Step, d.Stop)
}

// Shape is an ordered list of dimensions. Cells are stored in row-major
// order: the last dimension varies fastest (matching Fig. 3, where for
// matrix(x, y) the x BAT repeats each value 4 times and the y BAT cycles
// 0..3 four times).
type Shape []Dim

// Check rejects a shape that cannot be materialised: a zero step, or a
// dimension extent or cell count beyond MaxCells. The product is
// overflow-checked.
func (s Shape) Check() error {
	cells := uint64(1)
	for _, d := range s {
		if d.Step == 0 {
			return fmt.Errorf("dimension %q: step must be non-zero", d.Name)
		}
		n := d.extent()
		if n > MaxCells || (n > 0 && cells > MaxCells/n) {
			return fmt.Errorf("dimension %q: array would exceed %d cells", d.Name, MaxCells)
		}
		cells *= n
	}
	return nil
}

// Cells returns the total number of cells.
func (s Shape) Cells() int {
	n := 1
	for _, d := range s {
		n *= d.N()
	}
	return n
}

// Pos maps dimension coordinates to the flat cell position, reporting false
// when any coordinate is out of range.
func (s Shape) Pos(coords []int64) (int, bool) {
	if len(coords) != len(s) {
		return 0, false
	}
	pos := 0
	for k, d := range s {
		i, ok := d.Index(coords[k])
		if !ok {
			return 0, false
		}
		pos = pos*d.N() + i
	}
	return pos, true
}

// Coords maps a flat cell position back to dimension coordinates.
func (s Shape) Coords(pos int, out []int64) []int64 {
	if out == nil {
		out = make([]int64, len(s))
	}
	for k := len(s) - 1; k >= 0; k-- {
		n := s[k].N()
		out[k] = s[k].Value(pos % n)
		pos /= n
	}
	return out
}

// Reps returns the series repetition parameters (N, M) for dimension k, as
// taken by the array.series MAL primitive: each coordinate value repeats N
// times in a row and the whole sequence repeats M times (paper §3, Fig. 3).
func (s Shape) Reps(k int) (n, m int) {
	n, m = 1, 1
	for i := k + 1; i < len(s); i++ {
		n *= s[i].N()
	}
	for i := 0; i < k; i++ {
		m *= s[i].N()
	}
	return n, m
}

// Equal reports whether two shapes have identical geometry (names ignored).
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i].Start != o[i].Start || s[i].Step != o[i].Step || s[i].Stop != o[i].Stop {
			return false
		}
	}
	return true
}

// Strides returns the row-major stride (in cells) of each dimension.
func (s Shape) Strides() []int {
	st := make([]int, len(s))
	acc := 1
	for k := len(s) - 1; k >= 0; k-- {
		st[k] = acc
		acc *= s[k].N()
	}
	return st
}
