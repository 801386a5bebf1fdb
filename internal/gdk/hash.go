package gdk

import (
	"math"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/types"
)

// Row hashing for the hash join, grouping and DISTINCT kernels.
//
// The hash is an inlined FNV-1a over the typed column slices: no hash.Hash
// interface, no per-row buffer, zero allocations on the hot path. Numeric
// values feed the mix eight bytes at a time through an unrolled round, so a
// probe over int keys costs a handful of multiplies per row.

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// mix64 folds one 64-bit value into the running FNV-1a state byte-wise
// (little-endian), exactly like hashing the value's 8 bytes.
func mix64(h, v uint64) uint64 {
	h = (h ^ (v & 0xFF)) * fnvPrime
	h = (h ^ ((v >> 8) & 0xFF)) * fnvPrime
	h = (h ^ ((v >> 16) & 0xFF)) * fnvPrime
	h = (h ^ ((v >> 24) & 0xFF)) * fnvPrime
	h = (h ^ ((v >> 32) & 0xFF)) * fnvPrime
	h = (h ^ ((v >> 40) & 0xFF)) * fnvPrime
	h = (h ^ ((v >> 48) & 0xFF)) * fnvPrime
	h = (h ^ (v >> 56)) * fnvPrime
	return h
}

// mixByte folds a single byte into the state.
func mixByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

// mixString folds a string's bytes into the state without conversion
// allocations (indexing a string yields bytes directly).
func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// canonNaN is the one NaN every NaN key maps to (see floatKey).
var canonNaN = math.Float64bits(math.NaN())

// floatKey returns the bits a FLOAT key hashes and groups by: every NaN
// maps to one NaN and -0.0 to 0.0, so values that are one group in SQL
// share one key. Ordering comparisons keep their own NaN convention.
func floatKey(f float64) uint64 {
	switch {
	case f != f:
		return canonNaN
	case f == 0:
		return 0
	}
	return math.Float64bits(f)
}

// rowHasher hashes and compares rows of a fixed key-column list.
// Construction resolves each column to its decoded typed view once (one
// slab-layer charge per column, and a single decode for encoded columns),
// so the per-row loops — which run millions of times inside joins and
// grouping — touch only flat slices. A rowHasher is read-only after
// construction and safe to share across workers.
type rowHasher struct {
	cols  []*bat.BAT
	isStr []bool
	mix   []func(h uint64, i int) uint64
	eq    []func(i, j int) bool // non-NULL rows i and j hold one key value
}

func newRowHasher(cols []*bat.BAT) rowHasher {
	rh := rowHasher{
		cols:  cols,
		isStr: make([]bool, len(cols)),
		mix:   make([]func(uint64, int) uint64, len(cols)),
		eq:    make([]func(int, int) bool, len(cols)),
	}
	for k, c := range cols {
		switch c.Kind() {
		case types.KindInt, types.KindOID:
			vals := c.DecodedInts()
			rh.mix[k] = func(h uint64, i int) uint64 { return mix64(h, uint64(vals[i])) }
			rh.eq[k] = func(i, j int) bool { return vals[i] == vals[j] }
		case types.KindVoid:
			base := uint64(c.Seqbase())
			rh.mix[k] = func(h uint64, i int) uint64 { return mix64(h, base+uint64(i)) }
			rh.eq[k] = func(i, j int) bool { return i == j }
		case types.KindFloat:
			vals := c.DecodedFloats()
			rh.mix[k] = func(h uint64, i int) uint64 { return mix64(h, floatKey(vals[i])) }
			rh.eq[k] = func(i, j int) bool { return floatKey(vals[i]) == floatKey(vals[j]) }
		case types.KindBool:
			vals := c.DecodedBools()
			rh.mix[k] = func(h uint64, i int) uint64 {
				if vals[i] {
					return mixByte(h, 1)
				}
				return mixByte(h, 0)
			}
			rh.eq[k] = func(i, j int) bool { return vals[i] == vals[j] }
		case types.KindStr:
			rh.isStr[k] = true
			vals := c.DecodedStrs()
			rh.mix[k] = func(h uint64, i int) uint64 { return mixString(h, vals[i]) }
			rh.eq[k] = func(i, j int) bool { return vals[i] == vals[j] }
		default:
			rh.mix[k] = func(h uint64, i int) uint64 { return h }
			rh.eq[k] = func(i, j int) bool { return true }
		}
	}
	return rh
}

// row hashes row i, returning ok=false for rows containing any NULL (the
// callers treat those as non-matching).
func (rh rowHasher) row(i int) (uint64, bool) {
	h := fnvOffset
	for k, c := range rh.cols {
		if c.IsNull(i) {
			return 0, false
		}
		h = rh.mix[k](h, i)
		if rh.isStr[k] {
			h = mixByte(h, 0)
		}
	}
	return h, true
}

// nullPattern hashes a row that contains NULLs with GROUP BY semantics:
// NULL contributes a marker byte, non-NULL values contribute their typed
// bytes followed by a separator, so (1, NULL) and (NULL, 1) hash apart.
func (rh rowHasher) nullPattern(i int) uint64 {
	h := fnvOffset
	for k, c := range rh.cols {
		if c.IsNull(i) {
			h = mixByte(h, 0xFF)
			continue
		}
		h = rh.mix[k](h, i)
		h = mixByte(h, 0xFE)
	}
	return h
}

// equal compares rows i and j with GROUP BY semantics: NULL equals NULL
// and differs from every value.
func (rh rowHasher) equal(i, j int) bool {
	for k, c := range rh.cols {
		in, jn := c.IsNull(i), c.IsNull(j)
		if in != jn {
			return false
		}
		if !in && !rh.eq[k](i, j) {
			return false
		}
	}
	return true
}

// hashRows computes rowHasher.row for rows [0,n) of cols into hs, with ok
// bits in valid, splitting the work across the pool. Both slices must be
// length n.
func hashRows(cols []*bat.BAT, n int, hs []uint64, valid []bool) {
	rh := newRowHasher(cols)
	par.Do(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hs[i], valid[i] = rh.row(i)
		}
	})
}
