package gdk

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/shape"
	"repro/internal/types"
)

// The property under test: for every kernel, the morsel-parallel execution
// produces a BAT identical to the serial one — same values, same null
// bitmap — at sizes straddling the parallel cutoff. Float aggregates are
// the one sanctioned exception: chunked summation reassociates float
// addition, so sums compare with a relative epsilon.

// equivSizes straddle the forced cutoff (equivCutoff): below it kernels
// stay serial, at and above it they engage the pool.
const equivCutoff = 4097

var equivSizes = []int{64, 4096, 4097, 5000, 20000}

// runBoth evaluates f serially and in parallel and hands both results to
// check.
func runBoth[T any](t *testing.T, f func() T, check func(serial, parallel T)) {
	t.Helper()
	prevT := par.SetThreads(1)
	prevM := par.SetMorselThreshold(equivCutoff)
	restore := func() {
		par.SetThreads(prevT)
		par.SetMorselThreshold(prevM)
	}
	defer restore()
	serial := f()
	par.SetThreads(8)
	parallel := f()
	check(serial, parallel)
}

// mkInts builds a deterministic int column with ~1/8 NULLs and values in
// [-50, 50) (small domain so grouping and joins produce real collisions).
func mkInts(rng *rand.Rand, n int) *bat.BAT {
	vals := make([]int64, n)
	b := bat.FromInts(vals)
	for i := range vals {
		vals[i] = rng.Int63n(100) - 50
	}
	for i := 0; i < n; i += 8 {
		b.SetNull(rng.Intn(n), true)
	}
	return b
}

func mkFloats(rng *rand.Rand, n int) *bat.BAT {
	vals := make([]float64, n)
	b := bat.FromFloats(vals)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 10
	}
	for i := 0; i < n; i += 8 {
		b.SetNull(rng.Intn(n), true)
	}
	return b
}

// mkExtremes builds an int key drawn from {MinInt64, -1, 0, MaxInt64}
// with ~1/8 NULLs, so every chunk holds both ends of the domain.
func mkExtremes(rng *rand.Rand, n int) *bat.BAT {
	vals := make([]int64, n)
	b := bat.FromInts(vals)
	dom := []int64{math.MinInt64, -1, 0, math.MaxInt64}
	for i := range vals {
		vals[i] = dom[rng.Intn(len(dom))]
	}
	for i := 0; i < n; i += 8 {
		b.SetNull(rng.Intn(n), true)
	}
	return b
}

// mkFloatKeys builds a float key over a small domain that holds NaNs of
// both signs and both zeros (one group each in SQL), with ~1/8 NULLs.
func mkFloatKeys(rng *rand.Rand, n int) *bat.BAT {
	vals := make([]float64, n)
	b := bat.FromFloats(vals)
	dom := []float64{math.NaN(), -math.NaN(), 0, math.Copysign(0, -1), 1.5, -2.25, math.Inf(1)}
	for i := range vals {
		vals[i] = dom[rng.Intn(len(dom))]
	}
	for i := 0; i < n; i += 8 {
		b.SetNull(rng.Intn(n), true)
	}
	return b
}

func mkBools(rng *rand.Rand, n int) *bat.BAT {
	vals := make([]bool, n)
	b := bat.FromBools(vals)
	for i := range vals {
		vals[i] = rng.Intn(2) == 0
	}
	for i := 0; i < n; i += 8 {
		b.SetNull(rng.Intn(n), true)
	}
	return b
}

// batsEqual compares two BATs row-wise through the NULL-aware accessors.
func batsEqual(t *testing.T, label string, a, b *bat.BAT) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: len %d vs %d", label, a.Len(), b.Len())
	}
	if a.ValueKind() != b.ValueKind() {
		t.Fatalf("%s: kind %s vs %s", label, a.ValueKind(), b.ValueKind())
	}
	for i := 0; i < a.Len(); i++ {
		an, bn := a.IsNull(i), b.IsNull(i)
		if an != bn {
			t.Fatalf("%s: row %d null mismatch %v vs %v", label, i, an, bn)
		}
		if an {
			continue
		}
		if !a.Get(i).Equal(b.Get(i)) {
			t.Fatalf("%s: row %d value %v vs %v", label, i, a.Get(i), b.Get(i))
		}
	}
}

// batsClose is batsEqual with a relative epsilon for float rows
// (reassociated float sums).
func batsClose(t *testing.T, label string, a, b *bat.BAT) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: len %d vs %d", label, a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		an, bn := a.IsNull(i), b.IsNull(i)
		if an != bn {
			t.Fatalf("%s: row %d null mismatch %v vs %v", label, i, an, bn)
		}
		if an {
			continue
		}
		x, _ := a.Get(i).AsFloat()
		y, _ := b.Get(i).AsFloat()
		if diff := math.Abs(x - y); diff > 1e-9*(1+math.Abs(x)) {
			t.Fatalf("%s: row %d value %v vs %v", label, i, x, y)
		}
	}
}

func TestParEquivArith(t *testing.T) {
	for _, n := range equivSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		li, ri := mkInts(rng, n), mkInts(rng, n)
		lf, rf := mkFloats(rng, n), mkFloats(rng, n)
		for _, op := range []string{"+", "-", "*"} {
			runBoth(t, func() *bat.BAT {
				out, err := Arith(op, B(li), B(ri), nil)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("int %s n=%d", op, n), s, p) })
			runBoth(t, func() *bat.BAT {
				out, err := Arith(op, B(lf), B(rf), nil)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("float %s n=%d", op, n), s, p) })
		}
		// Division with a guaranteed non-zero divisor.
		runBoth(t, func() *bat.BAT {
			out, err := Arith("/", B(li), C(types.Int(7), n), nil)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("int / n=%d", n), s, p) })
	}
}

func TestParEquivArithErrors(t *testing.T) {
	// Division by zero must error identically in serial and parallel runs.
	n := 20000
	rng := rand.New(rand.NewSource(1))
	li := mkInts(rng, n)
	runBoth(t, func() string {
		_, err := Arith("/", B(li), C(types.Int(0), n), nil)
		if err == nil {
			return ""
		}
		return err.Error()
	}, func(s, p string) {
		if s == "" || s != p {
			t.Fatalf("error mismatch: serial %q parallel %q", s, p)
		}
	})
}

func TestParEquivCompareLogic(t *testing.T) {
	for _, n := range equivSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		li, ri := mkInts(rng, n), mkInts(rng, n)
		lb, rb := mkBools(rng, n), mkBools(rng, n)
		for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
			runBoth(t, func() *bat.BAT {
				out, err := Compare(op, B(li), B(ri), nil)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("cmp %s n=%d", op, n), s, p) })
		}
		runBoth(t, func() *bat.BAT {
			out, err := And(B(lb), B(rb), nil)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("and n=%d", n), s, p) })
		runBoth(t, func() *bat.BAT {
			out, err := Or(B(lb), B(rb), nil)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("or n=%d", n), s, p) })
		runBoth(t, func() *bat.BAT {
			out, err := Not(B(lb), nil)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("not n=%d", n), s, p) })
	}
}

func TestParEquivSelections(t *testing.T) {
	for _, n := range equivSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		col := mkInts(rng, n)
		cond := mkBools(rng, n)
		runBoth(t, func() *bat.BAT {
			out, err := SelectBool(cond, nil)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("selectbool n=%d", n), s, p) })
		runBoth(t, func() *bat.BAT {
			out, err := ThetaSelect(col, nil, types.Int(0), "<")
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("theta n=%d", n), s, p) })
		runBoth(t, func() *bat.BAT {
			out, err := RangeSelect(col, nil, types.Int(-10), types.Int(10))
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("range n=%d", n), s, p) })
		runBoth(t, func() *bat.BAT {
			out, err := SelectNonNull(col, nil)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("nonnull n=%d", n), s, p) })
		// Candidate-restricted scan through a prior selection.
		cand, err := ThetaSelect(col, nil, types.Int(20), "<")
		if err != nil {
			t.Fatal(err)
		}
		runBoth(t, func() *bat.BAT {
			out, err := ThetaSelect(col, cand, types.Int(-20), ">")
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("theta cand n=%d", n), s, p) })
	}
}

func TestParEquivProject(t *testing.T) {
	for _, n := range equivSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		for _, src := range []*bat.BAT{mkInts(rng, n), mkFloats(rng, n), mkBools(rng, n)} {
			idxVals := make([]int64, n)
			for i := range idxVals {
				idxVals[i] = int64(rng.Intn(n))
			}
			idx := bat.FromOIDs(idxVals)
			// Punch a few NULL index entries (outer-join shape).
			for i := 0; i < n; i += 16 {
				idx.SetNull(rng.Intn(n), true)
			}
			runBoth(t, func() *bat.BAT {
				out, err := Project(idx, src)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}, func(s, p *bat.BAT) {
				batsEqual(t, fmt.Sprintf("project %s n=%d", src.Kind(), n), s, p)
			})
		}
	}
}

func TestParEquivProjectErrors(t *testing.T) {
	n := 20000
	src := bat.FromInts(make([]int64, n))
	idx := bat.FromOIDs([]int64{0, int64(n), 1}) // out of range in the middle
	runBoth(t, func() string {
		_, err := Project(idx, src)
		if err == nil {
			return ""
		}
		return err.Error()
	}, func(s, p string) {
		if s == "" || s != p {
			t.Fatalf("error mismatch: serial %q parallel %q", s, p)
		}
	})
}

func TestParEquivGroupAggr(t *testing.T) {
	aggs := []AggKind{AggSum, AggCount, AggCountAll, AggAvg, AggMin, AggMax}
	for _, n := range equivSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		key1, key2 := mkInts(rng, n), mkInts(rng, n)
		valsI, valsF := mkInts(rng, n), mkFloats(rng, n)

		type groupOut struct {
			gids, extents *bat.BAT
			n             int
		}
		oids := candVariants(n)["oids"]
		for _, c := range []struct {
			name string
			keys []*bat.BAT
			cand *bat.BAT
		}{
			{"int", []*bat.BAT{key1}, nil},
			{"int pair", []*bat.BAT{key1, key2}, nil},
			{"int extremes", []*bat.BAT{mkExtremes(rng, n)}, nil},
			{"float", []*bat.BAT{mkFloatKeys(rng, n)}, nil},
			{"bool", []*bat.BAT{mkBools(rng, n)}, nil},
			{"str", []*bat.BAT{mkStrs(rng, n)}, nil},
			{"float+str", []*bat.BAT{mkFloatKeys(rng, n), mkStrs(rng, n)}, nil},
			{"encoded cand", []*bat.BAT{encTwin(t, addNulls(rng, encDataset("lowcard", rng, n)), true)}, oids},
		} {
			label := fmt.Sprintf("group %s n=%d", c.name, n)
			runBoth(t, func() groupOut {
				g, err := Group(c.keys, c.cand)
				if err != nil {
					t.Fatal(err)
				}
				return groupOut{g.GIDs, g.Extents, g.N}
			}, func(s, p groupOut) {
				if s.n != p.n {
					t.Fatalf("%s: %d vs %d groups", label, s.n, p.n)
				}
				batsEqual(t, label+" gids", s.gids, p.gids)
				batsEqual(t, label+" extents", s.extents, p.extents)
			})
		}

		g, err := Group([]*bat.BAT{key1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, agg := range aggs {
			runBoth(t, func() *bat.BAT {
				out, err := SubAggr(agg, valsI, g.GIDs, g.N, nil)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}, func(s, p *bat.BAT) {
				batsEqual(t, fmt.Sprintf("subaggr int %s n=%d", agg, n), s, p)
			})
			runBoth(t, func() *bat.BAT {
				out, err := SubAggr(agg, valsF, g.GIDs, g.N, nil)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}, func(s, p *bat.BAT) {
				label := fmt.Sprintf("subaggr float %s n=%d", agg, n)
				if agg == AggSum || agg == AggAvg {
					batsClose(t, label, s, p)
				} else {
					batsEqual(t, label, s, p)
				}
			})
		}
	}
}

func TestParEquivJoins(t *testing.T) {
	for _, n := range equivSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		lk, rk := mkInts(rng, n), mkInts(rng, n/2+1)
		runBoth(t, func() [2]*bat.BAT {
			l, r, err := HashJoin([]*bat.BAT{lk}, []*bat.BAT{rk}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return [2]*bat.BAT{l, r}
		}, func(s, p [2]*bat.BAT) {
			batsEqual(t, fmt.Sprintf("hashjoin l n=%d", n), s[0], p[0])
			batsEqual(t, fmt.Sprintf("hashjoin r n=%d", n), s[1], p[1])
		})
		runBoth(t, func() [2]*bat.BAT {
			l, r, err := LeftJoin([]*bat.BAT{lk}, []*bat.BAT{rk}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return [2]*bat.BAT{l, r}
		}, func(s, p [2]*bat.BAT) {
			batsEqual(t, fmt.Sprintf("leftjoin l n=%d", n), s[0], p[0])
			batsEqual(t, fmt.Sprintf("leftjoin r n=%d", n), s[1], p[1])
		})
	}
}

func TestParEquivTileSAT(t *testing.T) {
	// Grids large enough to engage the pool at the forced cutoff: a
	// 160x160 int array with NULL cells and the same shape as float, a
	// NULL-free int array (COUNT is then the clipped area), and 1-D and
	// 3-D arrays with their own tiles.
	sq := shape.Shape{
		{Name: "x", Start: 0, Step: 1, Stop: 160},
		{Name: "y", Start: 0, Step: 1, Stop: 160},
	}
	line := shape.Shape{{Name: "x", Start: -5, Step: 2, Stop: 2*30000 - 5}}
	cube := shape.Shape{
		{Name: "x", Start: 0, Step: 1, Stop: 30},
		{Name: "y", Start: -3, Step: 1, Stop: 27},
		{Name: "z", Start: 0, Step: 1, Stop: 30},
	}
	rng := rand.New(rand.NewSource(7))
	noNulls := mkInts(rng, sq.Cells())
	noNulls.SetNullMask(nil)
	box5 := []TileRange{{Lo: -2, Hi: 3}, {Lo: -2, Hi: 3}}
	for _, c := range []struct {
		name string
		sh   shape.Shape
		attr *bat.BAT
		tile []TileRange
	}{
		{"int", sq, mkInts(rng, sq.Cells()), box5},
		{"float", sq, mkFloats(rng, sq.Cells()), box5},
		{"int no nulls", sq, noNulls, box5},
		{"1-D float", line, mkFloats(rng, line.Cells()), []TileRange{{Lo: -4, Hi: 9}}},
		{"3-D int", cube, mkInts(rng, cube.Cells()), []TileRange{{Lo: -1, Hi: 2}, {Lo: 0, Hi: 3}, {Lo: -2, Hi: 1}}},
	} {
		for _, agg := range []AggKind{AggSum, AggCount, AggAvg} {
			label := fmt.Sprintf("tilesat %s %s", c.name, agg)
			runBoth(t, func() *bat.BAT {
				out, err := TileAggSAT(agg, c.attr, c.sh, c.tile)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}, func(s, p *bat.BAT) {
				batsIdentical(t, label, s, p)
				want, err := TileAgg(agg, c.attr, c.sh, c.tile)
				if err != nil {
					t.Fatal(err)
				}
				batsClose(t, label+" vs TileAgg", want, s)
			})
		}
	}
}

// batsIdentical is batsEqual with float rows compared bit for bit.
func batsIdentical(t *testing.T, label string, a, b *bat.BAT) {
	t.Helper()
	batsEqual(t, label, a, b)
	if a.ValueKind() != types.KindFloat {
		return
	}
	for i, x := range a.Floats() {
		if y := b.Floats()[i]; !a.IsNull(i) && math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s: row %d bits %x vs %x", label, i, math.Float64bits(x), math.Float64bits(y))
		}
	}
}

// TestParEquivHashZeroAlloc pins the zero-allocation property of the row
// hasher's hot path: once the rowHasher is built (one construction per
// kernel call), hashing a row must not allocate.
func TestParEquivHashZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cols := []*bat.BAT{mkInts(rng, 1024), mkFloats(rng, 1024)}
	rh := newRowHasher(cols)
	allocs := testing.AllocsPerRun(1000, func() {
		rh.row(512)
		rh.nullPattern(512)
	})
	if allocs != 0 {
		t.Fatalf("row hashing allocates %.1f per run, want 0", allocs)
	}
}
