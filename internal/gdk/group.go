package gdk

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/types"
)

// GroupResult is the output of value-based grouping (MAL group.group):
// GIDs assigns every input row its group id (dense, first-occurrence order),
// Extents holds, per group, the position of the group's first row, and
// N is the number of groups.
type GroupResult struct {
	GIDs    *bat.BAT
	Extents *bat.BAT
	N       int
}

// Group performs value-based grouping over one or more aligned key columns.
// NULLs group together (SQL GROUP BY semantics).
//
// When cand is non-nil the key columns are base-aligned and only the
// candidate rows are grouped: GIDs is candidate-aligned (row i is the
// group of base row cand[i]) while Extents holds base positions, so key
// output columns project directly from base storage.
//
// Above the morsel threshold the input is partitioned into contiguous row
// ranges, each worker groups its partition locally, and the local tables
// are merged in partition order. Merging in order keeps group ids dense in
// global first-occurrence order, so the parallel result is bit-identical to
// the serial one.
func Group(keys []*bat.BAT, cand *bat.BAT) (*GroupResult, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("gdk: group needs at least one key column")
	}
	if cand != nil {
		rk, err := restrictCols(keys, cand)
		if err != nil {
			return nil, err
		}
		res, err := Group(rk, nil)
		if err != nil {
			return nil, err
		}
		// Map extents (positions into candidate space) back to base rows;
		// composition through the ascending candidate list keeps them in
		// first-occurrence order.
		ext, err := Project(res.Extents, cand)
		if err != nil {
			return nil, err
		}
		ext.Key = true
		res.Extents = ext
		return res, nil
	}
	n := keys[0].Len()
	for _, k := range keys {
		if k.Len() != n {
			return nil, fmt.Errorf("gdk: group keys not aligned")
		}
	}
	// A sorted single key clusters every group into one contiguous run:
	// detect runs in a single pass instead of hashing. Equal values are
	// always adjacent in a sorted column, so run order equals
	// first-occurrence order and the group ids come out bit-identical to
	// the hash path's (and non-decreasing, which downstream aggregation
	// exploits).
	if StatsEnabled() && len(keys) == 1 && !keys[0].HasNulls() &&
		(keys[0].Sorted || keys[0].SortedDesc) {
		if res, ok := groupSortedRuns(keys[0]); ok {
			return res, nil
		}
	}
	gids := make([]int64, n)
	gr := newGrouper(keys)
	plan := par.NewPlan(n)
	if !plan.Parallel() {
		extents := gr.groupRange(0, n, gids)
		return groupResult(gids, extents), nil
	}

	// Phase 1: group each partition locally. localExtents[c] holds absolute
	// first-row positions of the partition's groups in first-occurrence
	// order; gids temporarily holds partition-local ids.
	localExtents := make([][]int64, plan.Chunks())
	plan.Run(func(c, lo, hi int) {
		localExtents[c] = gr.groupRange(lo, hi, gids)
	})

	// Phase 2: merge partitions in order. Each local group's representative
	// row is looked up in the global table; processing partitions in row
	// order makes global ids dense in first-occurrence order.
	var extents []int64
	remaps := make([][]int64, plan.Chunks())
	for c := range localExtents {
		remap := make([]int64, len(localExtents[c]))
		for g, first := range localExtents[c] {
			remap[g] = gr.merge(first, &extents)
		}
		remaps[c] = remap
	}

	// Phase 3: rewrite partition-local ids to global ids, in parallel.
	plan.Run(func(c, lo, hi int) {
		remap := remaps[c]
		for i := lo; i < hi; i++ {
			gids[i] = remap[gids[i]]
		}
	})
	return groupResult(gids, extents), nil
}

func groupResult(gids, extents []int64) *GroupResult {
	g := bat.FromOIDs(gids)
	e := bat.FromOIDs(extents)
	e.Key = true
	return &GroupResult{GIDs: g, Extents: e, N: len(extents)}
}

// groupSortedRuns groups a sorted NULL-free key column by run detection:
// one pass, no hash table. ok is false for kinds that keep the hash path:
// bool (no typed comparison) and float, whose order claims do not hold
// around NaN (every comparison with NaN is false), so equal keys need not
// be adjacent.
func groupSortedRuns(key *bat.BAT) (*GroupResult, bool) {
	n := key.Len()
	var same func(i int) bool // row i equals row i-1
	switch key.Kind() {
	case types.KindVoid:
		same = func(int) bool { return false }
	case types.KindInt, types.KindOID:
		vals := key.DecodedInts()
		same = func(i int) bool { return vals[i] == vals[i-1] }
	case types.KindStr:
		vals := key.DecodedStrs()
		same = func(i int) bool { return vals[i] == vals[i-1] }
	default:
		return nil, false
	}
	gids := make([]int64, n)
	extents := make([]int64, 0, 16)
	g := int64(-1)
	for i := 0; i < n; i++ {
		if i == 0 || !same(i) {
			g++
			extents = append(extents, int64(i))
		}
		gids[i] = g
	}
	res := groupResult(gids, extents)
	// Run-detected ids are non-decreasing by construction; claim it so
	// aggregation can take its run path.
	res.GIDs.Sorted = true
	res.Extents.Sorted = true
	return res, true
}

// A grouper assigns group ids over one key layout. groupRange groups rows
// [lo,hi) against an empty local table, writing local group ids (dense from
// 0 in first-occurrence order) into gids[lo:hi] and returning the groups'
// absolute first-row positions; it may run concurrently on disjoint
// ranges. merge folds one local group, represented by its first row, into
// the grouper's global table and returns its global id; it runs serially,
// in partition order.
type grouper interface {
	groupRange(lo, hi int, gids []int64) []int64
	merge(first int64, extents *[]int64) int64
}

// newGrouper picks the table for the key columns: a single key groups on
// its decoded value in a typed map, several keys on a row hash.
func newGrouper(keys []*bat.BAT) grouper {
	if len(keys) > 1 {
		return &hashGrouper{rh: newRowHasher(keys), global: map[uint64][]int32{}}
	}
	k := keys[0]
	switch k.Kind() {
	case types.KindInt, types.KindOID:
		return newKeyGrouper(k.DecodedInts(), k.NullMask())
	case types.KindVoid:
		return newKeyGrouper(k.Materialize().DecodedInts(), nil)
	case types.KindFloat:
		vals := k.DecodedFloats()
		bits := make([]uint64, len(vals))
		par.Do(len(vals), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				bits[i] = floatKey(vals[i])
			}
		})
		return newKeyGrouper(bits, k.NullMask())
	case types.KindBool:
		return newKeyGrouper(k.DecodedBools(), k.NullMask())
	default:
		return newKeyGrouper(k.DecodedStrs(), k.NullMask())
	}
}

// keyGrouper groups a single key column by its typed value. NULL rows get
// their own group slot, outside the map.
type keyGrouper[K comparable] struct {
	vals   []K
	nulls  *bat.Bitmap
	global map[K]int32
	nullG  int64 // global id of the NULL group, -1 until seen
	// scratch recycles partition tables (*keyScratch[K]): cancellable
	// plans cut the input into many small morsels, and a fresh map per
	// morsel would regrow to the group count every time.
	scratch sync.Pool
}

type keyScratch[K comparable] struct {
	table   map[K]int32
	extents []int64
}

func newKeyGrouper[K comparable](vals []K, nulls *bat.Bitmap) *keyGrouper[K] {
	return &keyGrouper[K]{vals: vals, nulls: nulls, global: map[K]int32{}, nullG: -1}
}

func (g *keyGrouper[K]) groupRange(lo, hi int, gids []int64) []int64 {
	sc, _ := g.scratch.Get().(*keyScratch[K])
	if sc == nil {
		sc = &keyScratch[K]{table: make(map[K]int32)}
	}
	table, extents := sc.table, sc.extents[:0]
	nullG := int64(-1)
	for i := lo; i < hi; i++ {
		if g.nulls.Get(i) {
			if nullG < 0 {
				nullG = int64(len(extents))
				extents = append(extents, int64(i))
			}
			gids[i] = nullG
			continue
		}
		v := g.vals[i]
		id, ok := table[v]
		if !ok {
			id = int32(len(extents))
			extents = append(extents, int64(i))
			table[v] = id
		}
		gids[i] = int64(id)
	}
	out := slices.Clone(extents)
	clear(table)
	sc.extents = extents
	g.scratch.Put(sc)
	return out
}

func (g *keyGrouper[K]) merge(first int64, extents *[]int64) int64 {
	i := int(first)
	if g.nulls.Get(i) {
		if g.nullG < 0 {
			g.nullG = int64(len(*extents))
			*extents = append(*extents, first)
		}
		return g.nullG
	}
	v := g.vals[i]
	if id, ok := g.global[v]; ok {
		return int64(id)
	}
	id := int32(len(*extents))
	*extents = append(*extents, first)
	g.global[v] = id
	return int64(id)
}

// hashGrouper groups several key columns: rows hash through the rowHasher
// and each hash bucket lists the groups whose first row has that hash.
type hashGrouper struct {
	rh     rowHasher
	global map[uint64][]int32
}

func (g *hashGrouper) groupRange(lo, hi int, gids []int64) []int64 {
	table := make(map[uint64][]int32)
	var extents []int64
	for i := lo; i < hi; i++ {
		gids[i] = g.find(i, table, &extents)
	}
	return extents
}

func (g *hashGrouper) merge(first int64, extents *[]int64) int64 {
	return g.find(int(first), g.global, extents)
}

// find returns the id of row i's group in table, adding a new group (with
// row i as its first row) when none matches.
func (g *hashGrouper) find(i int, table map[uint64][]int32, extents *[]int64) int64 {
	h, ok := g.rh.row(i)
	if !ok {
		// Rows with NULL key(s) group by their exact NULL pattern plus
		// their non-NULL values.
		h = g.rh.nullPattern(i)
	}
	for _, id := range table[h] {
		if g.rh.equal(i, int((*extents)[id])) {
			return int64(id)
		}
	}
	id := int32(len(*extents))
	*extents = append(*extents, int64(i))
	table[h] = append(table[h], id)
	return int64(id)
}

// Unique returns the positions of the first occurrence of each distinct row
// (used by SELECT DISTINCT), restricted to the candidate rows when cand is
// non-nil.
func Unique(cols []*bat.BAT, cand *bat.BAT) (*bat.BAT, error) {
	g, err := Group(cols, cand)
	if err != nil {
		return nil, err
	}
	return g.Extents, nil
}
