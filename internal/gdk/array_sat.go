package gdk

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/shape"
	"repro/internal/types"
)

// TileAggSAT computes the same result as TileAgg for SUM/AVG/COUNT tiles
// that cover a contiguous index box, using a d-dimensional summed-area
// table: O(cells · 2^d) per query instead of O(cells · tile-size). The MAL
// optimizer switches to this kernel when the tile area is large enough
// (see internal/mal, optimizer pass "tileSAT").
//
// It returns an error when the tile is not SAT-able (off-grid offsets on a
// stepped dimension make the covered index set non-contiguous only if the
// range excludes the grid entirely, which offsets() already handles; here
// the only restriction is the aggregate kind and value type).
func TileAggSAT(agg AggKind, attr *bat.BAT, sh shape.Shape, tile []TileRange) (*bat.BAT, error) {
	if agg != AggSum && agg != AggAvg && agg != AggCount && agg != AggCountAll {
		return nil, fmt.Errorf("gdk: SAT tiling supports sum/avg/count only, got %s", agg)
	}
	if len(tile) != len(sh) {
		return nil, fmt.Errorf("gdk: tile spec has %d dimensions, array has %d", len(tile), len(sh))
	}
	k := len(sh)
	if k == 0 {
		return nil, fmt.Errorf("gdk: SAT tiling needs at least one dimension")
	}
	cells := sh.Cells()
	if attr.Len() != cells {
		return nil, fmt.Errorf("gdk: attribute column has %d cells, shape has %d", attr.Len(), cells)
	}
	dims := make([]int, k)
	for d, dim := range sh {
		dims[d] = dim.N()
	}
	// Index-unit offset box [lo_d, hi_d] (inclusive) per dimension.
	lo := make([]int, k)
	hi := make([]int, k)
	for d, t := range tile {
		offs := t.offsets(sh[d].Step)
		if len(offs) == 0 {
			return emptyTileResult(agg, attr.ValueKind(), cells)
		}
		// offsets() yields an increasing, dense run of index offsets.
		lo[d] = offs[0]
		hi[d] = offs[len(offs)-1]
		if hi[d]-lo[d]+1 != len(offs) {
			return nil, fmt.Errorf("gdk: tile offsets not contiguous in index space")
		}
	}

	st := satTile{dims: dims, lo: lo, hi: hi, strides: sh.Strides()}
	nulls := attr.NullMask()
	if attr.HasNulls() {
		// Non-NULL counts need their own prefix table; without NULLs a
		// box's count is its clipped area.
		st.pcount = prefixTable[int64](nil, cells, nulls, dims, st.strides)
	}
	counts := make([]int64, cells)
	if agg == AggCount || agg == AggCountAll {
		return finishAccumulate(agg, nil, nil, boxes[int64](&st, counts, nil, nil))
	}
	switch attr.ValueKind() {
	case types.KindFloat:
		psum := prefixTable(attr.DecodedFloats(), cells, nulls, dims, st.strides)
		sums := make([]float64, cells)
		return finishAccumulate(agg, nil, sums, boxes(&st, counts, psum, sums))
	case types.KindInt, types.KindOID:
		var vals []int64
		if attr.Kind() == types.KindVoid {
			vals = attr.Materialize().DecodedInts()
		} else {
			vals = attr.DecodedInts()
		}
		psum := prefixTable(vals, cells, nulls, dims, st.strides)
		sums := make([]int64, cells)
		return finishAccumulate(agg, sums, nil, boxes(&st, counts, psum, sums))
	default:
		return nil, fmt.Errorf("gdk: SAT tiling aggregate %s not defined on %s", agg, attr.ValueKind())
	}
}

// prefixTable builds the d-dimensional summed-area table of n cells: it
// starts from src (all ones when src is nil, for counting) with NULL
// cells zeroed, and sums one dimension at a time. Along a dimension of
// stride s and extent m, the cells form blocks of m*s, and within a block
// every row of s cells adds onto the next: contiguous loops, no coordinate
// decoding. The additions run in one fixed order, so float tables do not
// depend on scheduling.
func prefixTable[T int64 | float64](src []T, n int, nulls *bat.Bitmap, dims, strides []int) []T {
	t := make([]T, n)
	par.Do(n, func(lo, hi int) {
		if src != nil {
			copy(t[lo:hi], src[lo:hi])
		} else {
			for p := lo; p < hi; p++ {
				t[p] = 1
			}
		}
		if nulls != nil {
			for p := lo; p < hi; p++ {
				if nulls.Get(p) {
					t[p] = 0
				}
			}
		}
	})
	for d, s := range strides {
		block := s * dims[d]
		for b := 0; b < len(t); b += block {
			row := t[b : b+block]
			for j := s; j < block; j++ {
				row[j] += row[j-s]
			}
		}
	}
	return t
}

// satTile answers the box queries of one tile over prefix tables. The box
// of the cell at index i_d spans [i_d+lo_d, i_d+hi_d] per dimension,
// clipped to the array.
type satTile struct {
	dims, lo, hi, strides []int
	pcount                []int64 // prefix of non-NULL counts; nil when the attribute has no NULLs
}

// boxes writes every cell's non-NULL count into counts and, when psum is
// non-nil, its box sum into sums, and returns counts. Cells run
// morsel-parallel. The work goes one innermost-dimension row at a time:
// the outer dimensions are clipped and the 2^(d-1) outer corner offsets
// computed once per row, then each cell of the row reads its two inner
// ends per corner. Every cell combines its corners in the same order
// whatever the chunking, so float sums do not depend on it.
func boxes[T int64 | float64](st *satTile, counts []int64, psum, sums []T) []int64 {
	last := len(st.dims) - 1
	nl, loL, hiL := st.dims[last], st.lo[last], st.hi[last]
	outer := 1 << last
	if len(counts) == 0 {
		return counts
	}
	// Per-chunk scratch, carved from one allocation: the outer index,
	// and the offset and sign of each outer corner.
	plan := par.NewPlan(len(counts))
	per := last + 2*outer
	scratch := make([]int, plan.Chunks()*per)
	plan.Run(func(c, from, to int) {
		sc := scratch[c*per : (c+1)*per]
		idx, bases, signs := sc[:last], sc[last:last+outer], sc[last+outer:]
		// Decompose the chunk's first position once; rows then advance
		// the outer index like an odometer.
		r := from / nl
		j := from - r*nl
		for d := last - 1; d >= 0; d-- {
			idx[d] = r % st.dims[d]
			r /= st.dims[d]
		}
		for p := from; p < to; {
			end := min(to, p-j+nl)
			nc, area := st.rowCorners(idx, bases, signs)
			for ; p < end; p, j = p+1, j+1 {
				a, b := max(j+loL, 0), min(j+hiL, nl-1)
				if nc == 0 || a > b {
					continue // empty box: count 0, sum 0
				}
				if st.pcount == nil {
					counts[p] = area * int64(b-a+1)
				} else {
					counts[p] = cornerSum(st.pcount, bases[:nc], signs[:nc], a, b)
				}
				if psum != nil {
					sums[p] = cornerSum(psum, bases[:nc], signs[:nc], a, b)
				}
			}
			j = 0
			for d := last - 1; d >= 0; d-- {
				if idx[d]++; idx[d] < st.dims[d] {
					break
				}
				idx[d] = 0
			}
		}
	})
	return counts
}

// rowCorners computes the outer corners of the row at outer index idx: the
// flat offset of each valid corner's row start in bases and its sign (+1
// or -1) in signs. It returns the number of corners (0 when the box is
// empty along an outer dimension) and the clipped outer area.
func (st *satTile) rowCorners(idx, bases, signs []int) (int, int64) {
	nc := 1
	bases[0], signs[0] = 0, 1
	area := int64(1)
	for d := range idx {
		a := max(idx[d]+st.lo[d], 0)
		b := min(idx[d]+st.hi[d], st.dims[d]-1)
		if a > b {
			return 0, 0
		}
		area *= int64(b - a + 1)
		// Every corner so far takes the box's high end along d; those
		// with a low end inside the array also get a copy at a-1 with the
		// sign flipped.
		add := 0
		if a > 0 {
			for c := 0; c < nc; c++ {
				bases[nc+c] = bases[c] + (a-1)*st.strides[d]
				signs[nc+c] = -signs[c]
			}
			add = nc
		}
		for c := 0; c < nc; c++ {
			bases[c] += b * st.strides[d]
		}
		nc += add
	}
	return nc, area
}

// cornerSum evaluates the inclusion-exclusion sum of one cell whose inner
// box is [a, b]: per outer corner, the prefix at b minus the prefix at a-1.
func cornerSum[T int64 | float64](t []T, bases, signs []int, a, b int) T {
	var s T
	for c, base := range bases {
		v := t[base+b]
		if a > 0 {
			v -= t[base+a-1]
		}
		if signs[c] < 0 {
			s -= v
		} else {
			s += v
		}
	}
	return s
}

// SATProfitable is the heuristic the optimizer uses to pick the SAT kernel:
// it pays off once the tile covers enough cells that 2^d corner lookups
// beat tile-size accumulations.
func SATProfitable(sh shape.Shape, tile []TileRange) bool {
	d := len(sh)
	if d == 0 || d > 8 {
		return false
	}
	size := TileSize(sh, tile)
	// Prefix construction costs ~d passes; corner queries cost 2^d each.
	return size > 2*(1<<d)
}
