package gdk

import (
	"fmt"
	"sort"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/types"
)

// rowsEqual compares row li of ls with row ri of rs column-wise (non-NULL
// rows only; callers exclude NULLs).
func rowsEqual(ls []*bat.BAT, li int, rs []*bat.BAT, ri int) bool {
	for k := range ls {
		if !ls[k].Get(li).Equal(rs[k].Get(ri)) {
			return false
		}
	}
	return true
}

// HashJoin computes the inner equi-join of two aligned column groups on the
// given key columns. It returns two position lists (left and right), one
// entry per matching pair, ordered by left position. NULL keys never match.
//
// When lcand/rcand are non-nil the key columns are base-aligned and only
// the candidate rows on that side participate: the build side inserts only
// candidate rows, the probe side probes only candidate rows, and the
// returned position lists hold base positions, so downstream projections
// fetch from base storage directly.
//
// Both phases run on the shared worker pool above the morsel threshold: the
// build side hashes its rows in parallel before the (serial) table insert,
// and the probe side scans morsels concurrently, concatenating per-chunk
// match lists in chunk order so the output stays sorted by probe position.
func HashJoin(lkeys, rkeys []*bat.BAT, lcand, rcand *bat.BAT) (lIdx, rIdx *bat.BAT, err error) {
	if len(lkeys) == 0 || len(lkeys) != len(rkeys) {
		return nil, nil, fmt.Errorf("gdk: join needs matching key column lists")
	}
	for k := range lkeys {
		lk, rk := lkeys[k].ValueKind(), rkeys[k].ValueKind()
		if _, err := types.CommonKind(lk, rk); err != nil {
			return nil, nil, fmt.Errorf("gdk: join key %d: %v", k, err)
		}
	}
	if lkeys, err = restrictCols(lkeys, lcand); err != nil {
		return nil, nil, err
	}
	if rkeys, err = restrictCols(rkeys, rcand); err != nil {
		return nil, nil, err
	}
	lIdx, rIdx, err = hashJoinDense(lkeys, rkeys)
	if err != nil {
		return nil, nil, err
	}
	if lIdx, err = mapCand(lIdx, lcand); err != nil {
		return nil, nil, err
	}
	if rIdx, err = mapCand(rIdx, rcand); err != nil {
		return nil, nil, err
	}
	return lIdx, rIdx, nil
}

func hashJoinDense(lkeys, rkeys []*bat.BAT) (lIdx, rIdx *bat.BAT, err error) {
	// Both sides sorted on a single key: the merge join touches each side
	// once, builds no table, and produces the same (left, right)-ordered
	// pairs the hash paths do.
	if StatsEnabled() && len(lkeys) == 1 && mergeJoinEligible(lkeys[0], rkeys[0]) {
		return MergeJoin(lkeys[0], rkeys[0])
	}
	nl, nr := lkeys[0].Len(), rkeys[0].Len()
	// Build on the smaller side.
	if nr <= nl {
		return hashJoinBuildRight(lkeys, rkeys)
	}
	r, l, err := hashJoinBuildRight(rkeys, lkeys)
	if err != nil {
		return nil, nil, err
	}
	// Re-sort pairs by left position for deterministic output.
	return sortPairsByLeft(l, r)
}

// mergeJoinEligible reports whether the single-key merge join applies:
// both columns sorted ascending, NULL-free, and of the same storage family
// (the hash paths compare raw representations, so cross-family keys must
// keep taking them).
func mergeJoinEligible(l, r *bat.BAT) bool {
	if !l.Sorted || !r.Sorted || l.HasNulls() || r.HasNulls() {
		return false
	}
	lf, rf := keyFamily(l.Kind()), keyFamily(r.Kind())
	return lf != 0 && lf == rf
}

// keyFamily buckets storage kinds that compare identically for join
// purposes (0 = unsupported). Floats stay on the hash paths: every
// comparison with NaN is false, so a float column's order claims need not
// hold around NaN and a merge could miss matches the hash join finds.
func keyFamily(k types.Kind) int {
	switch k {
	case types.KindVoid, types.KindInt, types.KindOID:
		return 1
	case types.KindStr:
		return 3
	}
	return 0
}

// MergeJoin computes the inner equi-join of two sorted, NULL-free key
// columns in one linear pass: equal-value runs on both sides pair up as a
// small cross product. The output is ordered by (left, right) position —
// bit-identical to the hash paths' output — so callers may substitute it
// freely. Callers must check mergeJoinEligible-style preconditions; the
// kernel validates them again and errors otherwise.
func MergeJoin(l, r *bat.BAT) (lIdx, rIdx *bat.BAT, err error) {
	if !mergeJoinEligible(l, r) {
		return nil, nil, fmt.Errorf("gdk: merge join needs sorted NULL-free keys of one family, got %s/%s", l, r)
	}
	var lout, rout []int64
	if keyFamily(l.Kind()) == 1 {
		lout, rout = mergeRuns(l.Len(), r.Len(), intAt(l), intAt(r))
	} else {
		lv, rv := l.DecodedStrs(), r.DecodedStrs()
		lout, rout = mergeRuns(l.Len(), r.Len(),
			func(i int) string { return lv[i] }, func(i int) string { return rv[i] })
	}
	if par.CurrentJob().Canceled() {
		return nil, nil, par.ErrCanceled
	}
	lb, rb := bat.FromOIDs(lout), bat.FromOIDs(rout)
	lb.Sorted = true
	return lb, rb, nil
}

// mergeRuns is the sorted-merge core: advance past unequal values, expand
// equal runs pairwise. It is a single linear pass outside the morsel
// machinery, so it polls the goroutine's cancellation job itself and
// bails with a truncated (discarded by the caller) result.
func mergeRuns[T int64 | string](nl, nr int, lat, rat func(int) T) (lout, rout []int64) {
	job, tick := par.CurrentJob(), 0
	i, j := 0, 0
	for i < nl && j < nr {
		if tick++; tick&0xfff == 0 && job.Canceled() {
			break
		}
		lv, rv := lat(i), rat(j)
		switch {
		case lv < rv:
			i++
		case lv > rv:
			j++
		default:
			i2 := i + 1
			for i2 < nl && lat(i2) == lv {
				i2++
			}
			j2 := j + 1
			for j2 < nr && rat(j2) == rv {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					lout = append(lout, int64(a))
					rout = append(rout, int64(b))
				}
			}
			i, j = i2, j2
		}
	}
	if lout == nil {
		lout, rout = []int64{}, []int64{}
	}
	return lout, rout
}

// hashTable is a chained-bucket table over flat arrays: buckets[h&mask]
// holds the 1-based row index of its chain head, next[i] the 1-based
// index of the row after i in the same bucket, and 0 means "end". The
// zero value of both arrays is already a valid empty table, so the only
// allocations are demand-zero flat slices — unlike a row-count-sized Go
// map, whose eager bucket array is an uncancellable multi-hundred-MB
// stall at 10M rows. Chains keep ascending row order, so probing yields
// pairs in the same order the map-based table produced.
type hashTable struct {
	mask    uint64
	buckets []int32
	next    []int32
	hs      []uint64 // per-row hash: cheap chain filter before rowsEqual
	ok      []bool   // non-NULL rows (the only ones inserted)
}

// first returns the 1-based chain head for hash h (0 if empty).
func (t *hashTable) first(h uint64) int32 { return t.buckets[h&t.mask] }

// buildHashTable hashes every row of keys (in parallel) and chains the
// non-NULL ones into the bucket table. The insertion loop is the join's
// long serial segment, so it polls the goroutine's cancellation job
// every few thousand rows and bails with a partial table — callers must
// check the job before using the result.
func buildHashTable(keys []*bat.BAT) *hashTable {
	n := keys[0].Len()
	t := &hashTable{hs: make([]uint64, n), ok: make([]bool, n)}
	hashRows(keys, n, t.hs, t.ok)
	job := par.CurrentJob()
	if job.Canceled() {
		t.buckets = make([]int32, 1)
		return t
	}
	nb := 16
	for nb < n {
		nb <<= 1
	}
	t.mask = uint64(nb - 1)
	t.buckets = make([]int32, nb)
	t.next = make([]int32, n)
	// Insert in descending row order: each prepend leaves the chain
	// reading ascending, matching the probe-output order contract.
	for i := n - 1; i >= 0; i-- {
		if i&0xfff == 0 && job.Canceled() {
			break
		}
		if t.ok[i] {
			b := t.hs[i] & t.mask
			t.next[i] = t.buckets[b]
			t.buckets[b] = int32(i) + 1
		}
	}
	return t
}

func hashJoinBuildRight(lkeys, rkeys []*bat.BAT) (*bat.BAT, *bat.BAT, error) {
	nl := lkeys[0].Len()
	table := buildHashTable(rkeys)
	if par.CurrentJob().Canceled() {
		return nil, nil, par.ErrCanceled
	}

	// Probe phase: the table is read-only from here on, so morsels probe
	// concurrently with per-chunk output buffers.
	plan := par.NewPlan(nl)
	louts := make([][]int64, plan.Chunks())
	routs := make([][]int64, plan.Chunks())
	rh := newRowHasher(lkeys)
	plan.Run(func(c, lo, hi int) {
		var lout, rout []int64
		for i := lo; i < hi; i++ {
			h, ok := rh.row(i)
			if !ok {
				continue
			}
			for j := table.first(h); j != 0; j = table.next[j-1] {
				ri := int(j - 1)
				if table.hs[ri] == h && rowsEqual(lkeys, i, rkeys, ri) {
					lout = append(lout, int64(i))
					rout = append(rout, int64(ri))
				}
			}
		}
		louts[c], routs[c] = lout, rout
	})
	// A cancelled probe leaves partial chunk buffers; skip materialising
	// them (concat + copy of a possibly huge pair list) and bail now.
	if par.CurrentJob().Canceled() {
		return nil, nil, par.ErrCanceled
	}
	lb, rb := bat.FromOIDs(concatInt64(louts)), bat.FromOIDs(concatInt64(routs))
	lb.Sorted = true
	return lb, rb, nil
}

// concatInt64 joins per-chunk buffers in chunk order; a single chunk is
// returned as-is without copying.
func concatInt64(parts [][]int64) []int64 {
	if len(parts) == 1 {
		if parts[0] == nil {
			return []int64{}
		}
		return parts[0]
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int64, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func sortPairsByLeft(l, r *bat.BAT) (*bat.BAT, *bat.BAT, error) {
	if par.CurrentJob().Canceled() {
		return nil, nil, par.ErrCanceled
	}
	n := l.Len()
	type pair struct{ l, r int64 }
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{int64(l.OidAt(i)), int64(r.OidAt(i))}
	}
	// Stable order by left then right for determinism.
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].l != pairs[j].l {
			return pairs[i].l < pairs[j].l
		}
		return pairs[i].r < pairs[j].r
	})
	lo := make([]int64, n)
	ro := make([]int64, n)
	for i, p := range pairs {
		lo[i], ro[i] = p.l, p.r
	}
	lb, rb := bat.FromOIDs(lo), bat.FromOIDs(ro)
	lb.Sorted = true
	return lb, rb, nil
}

// LeftJoin computes the left outer equi-join: every left row appears at
// least once; unmatched rows pair with a NULL right position. Candidate
// lists restrict each side like HashJoin's; the probe phase is
// morsel-parallel like HashJoin's.
func LeftJoin(lkeys, rkeys []*bat.BAT, lcand, rcand *bat.BAT) (lIdx, rIdx *bat.BAT, err error) {
	if len(lkeys) == 0 || len(lkeys) != len(rkeys) {
		return nil, nil, fmt.Errorf("gdk: join needs matching key column lists")
	}
	if lkeys, err = restrictCols(lkeys, lcand); err != nil {
		return nil, nil, err
	}
	if rkeys, err = restrictCols(rkeys, rcand); err != nil {
		return nil, nil, err
	}
	lIdx, rIdx, err = leftJoinDense(lkeys, rkeys)
	if err != nil {
		return nil, nil, err
	}
	// NULL right positions (unmatched left rows) survive the composition:
	// Project keeps NULL index entries NULL.
	if lIdx, err = mapCand(lIdx, lcand); err != nil {
		return nil, nil, err
	}
	if rIdx, err = mapCand(rIdx, rcand); err != nil {
		return nil, nil, err
	}
	return lIdx, rIdx, nil
}

func leftJoinDense(lkeys, rkeys []*bat.BAT) (lIdx, rIdx *bat.BAT, err error) {
	nl := lkeys[0].Len()
	table := buildHashTable(rkeys)

	plan := par.NewPlan(nl)
	louts := make([][]int64, plan.Chunks())
	routs := make([][]int64, plan.Chunks())
	rnulls := make([][]bool, plan.Chunks())
	rh := newRowHasher(lkeys)
	plan.Run(func(c, lo, hi int) {
		var lout, rout []int64
		var rnull []bool
		for i := lo; i < hi; i++ {
			matched := false
			if h, ok := rh.row(i); ok {
				for j := table.first(h); j != 0; j = table.next[j-1] {
					ri := int(j - 1)
					if table.hs[ri] == h && rowsEqual(lkeys, i, rkeys, ri) {
						lout = append(lout, int64(i))
						rout = append(rout, int64(ri))
						rnull = append(rnull, false)
						matched = true
					}
				}
			}
			if !matched {
				lout = append(lout, int64(i))
				rout = append(rout, 0)
				rnull = append(rnull, true)
			}
		}
		louts[c], routs[c], rnulls[c] = lout, rout, rnull
	})
	if par.CurrentJob().Canceled() {
		return nil, nil, par.ErrCanceled
	}

	lout := bat.FromOIDs(concatInt64(louts))
	lout.Sorted = true
	rvals := concatInt64(routs)
	rout := bat.FromOIDs(rvals)
	var mask *bat.Bitmap
	pos := 0
	for _, part := range rnulls {
		for _, isNull := range part {
			if isNull {
				if mask == nil {
					mask = bat.NewBitmap(len(rvals))
				}
				mask.Set(pos, true)
			}
			pos++
		}
	}
	rout.SetNullMask(mask)
	return lout, rout, nil
}

// Cross computes the cross product position lists of two inputs of nl and
// nr rows. It refuses products beyond a sanity limit to protect the caller
// from runaway plans.
func Cross(nl, nr int) (lIdx, rIdx *bat.BAT, err error) {
	const limit = 1 << 28
	if int64(nl)*int64(nr) > limit {
		return nil, nil, fmt.Errorf("gdk: cross product of %d x %d rows exceeds limit", nl, nr)
	}
	n := nl * nr
	lo := make([]int64, n)
	ro := make([]int64, n)
	par.Do(n, func(from, to int) {
		for p := from; p < to; p++ {
			lo[p] = int64(p / nr)
			ro[p] = int64(p % nr)
		}
	})
	lb, rb := bat.FromOIDs(lo), bat.FromOIDs(ro)
	lb.Sorted = true
	return lb, rb, nil
}
