package shape

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDimN(t *testing.T) {
	cases := []struct {
		d    Dim
		want int
	}{
		{Dim{Start: 0, Step: 1, Stop: 4}, 4},
		{Dim{Start: 0, Step: 2, Stop: 4}, 2},
		{Dim{Start: 0, Step: 2, Stop: 5}, 3},
		{Dim{Start: -1, Step: 1, Stop: 5}, 6},
		{Dim{Start: 4, Step: -1, Stop: 0}, 4},
		{Dim{Start: 0, Step: 1, Stop: 0}, 0},
		{Dim{Start: 5, Step: 1, Stop: 2}, 0},
		{Dim{Start: 0, Step: 0, Stop: 4}, 0},
	}
	for _, c := range cases {
		if got := c.d.N(); got != c.want {
			t.Errorf("%v.N() = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestDimIndexAndValue(t *testing.T) {
	d := Dim{Name: "x", Start: -2, Step: 3, Stop: 10}
	// values: -2, 1, 4, 7 → N = 4
	if d.N() != 4 {
		t.Fatalf("N = %d", d.N())
	}
	for i := 0; i < d.N(); i++ {
		v := d.Value(i)
		j, ok := d.Index(v)
		if !ok || j != i {
			t.Errorf("Index(Value(%d)) = %d, %v", i, j, ok)
		}
	}
	if _, ok := d.Index(0); ok {
		t.Error("0 is off-step and must not index")
	}
	if _, ok := d.Index(10); ok {
		t.Error("10 is out of range (right-open)")
	}
	if !d.Contains(7) || d.Contains(8) {
		t.Error("Contains wrong")
	}
}

func TestNegativeStepIndex(t *testing.T) {
	d := Dim{Name: "x", Start: 4, Step: -1, Stop: 0}
	// values: 4, 3, 2, 1
	if d.N() != 4 {
		t.Fatalf("N = %d", d.N())
	}
	if i, ok := d.Index(4); !ok || i != 0 {
		t.Errorf("Index(4) = %d, %v", i, ok)
	}
	if i, ok := d.Index(1); !ok || i != 3 {
		t.Errorf("Index(1) = %d, %v", i, ok)
	}
	if _, ok := d.Index(0); ok {
		t.Error("0 is excluded (right-open)")
	}
}

func TestPosCoordsRoundtrip(t *testing.T) {
	sh := Shape{
		{Name: "x", Start: 0, Step: 1, Stop: 3},
		{Name: "y", Start: -1, Step: 2, Stop: 5},
		{Name: "z", Start: 0, Step: 1, Stop: 2},
	}
	cells := sh.Cells()
	if cells != 3*3*2 {
		t.Fatalf("cells = %d", cells)
	}
	seen := map[int]bool{}
	coords := make([]int64, 3)
	for p := 0; p < cells; p++ {
		sh.Coords(p, coords)
		q, ok := sh.Pos(coords)
		if !ok || q != p {
			t.Fatalf("Pos(Coords(%d)) = %d, %v", p, q, ok)
		}
		if seen[q] {
			t.Fatalf("position %d visited twice", q)
		}
		seen[q] = true
	}
}

func TestPosCoordsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(3) + 1
		sh := make(Shape, k)
		for d := range sh {
			sh[d] = Dim{
				Start: int64(rng.Intn(10) - 5),
				Step:  int64(rng.Intn(3) + 1),
			}
			sh[d].Stop = sh[d].Start + int64(rng.Intn(5)+1)*sh[d].Step
		}
		coords := make([]int64, k)
		for p := 0; p < sh.Cells(); p++ {
			sh.Coords(p, coords)
			if q, ok := sh.Pos(coords); !ok || q != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRowMajorLayout(t *testing.T) {
	// Fig. 3: for matrix(x, y) of 4x4, the last dimension (y) varies fastest.
	sh := Shape{
		{Name: "x", Start: 0, Step: 1, Stop: 4},
		{Name: "y", Start: 0, Step: 1, Stop: 4},
	}
	p0, _ := sh.Pos([]int64{0, 0})
	p1, _ := sh.Pos([]int64{0, 1})
	p4, _ := sh.Pos([]int64{1, 0})
	if p0 != 0 || p1 != 1 || p4 != 4 {
		t.Errorf("layout: %d %d %d", p0, p1, p4)
	}
}

func TestReps(t *testing.T) {
	// Fig. 3: x uses series(0,1,4,4,1), y uses series(0,1,4,1,4).
	sh := Shape{
		{Name: "x", Start: 0, Step: 1, Stop: 4},
		{Name: "y", Start: 0, Step: 1, Stop: 4},
	}
	if n, m := sh.Reps(0); n != 4 || m != 1 {
		t.Errorf("Reps(0) = %d,%d", n, m)
	}
	if n, m := sh.Reps(1); n != 1 || m != 4 {
		t.Errorf("Reps(1) = %d,%d", n, m)
	}
	// 3-D check: middle dimension repeats within and across.
	sh3 := Shape{
		{Start: 0, Step: 1, Stop: 2},
		{Start: 0, Step: 1, Stop: 3},
		{Start: 0, Step: 1, Stop: 5},
	}
	if n, m := sh3.Reps(1); n != 5 || m != 2 {
		t.Errorf("Reps(1) = %d,%d, want 5,2", n, m)
	}
}

func TestStrides(t *testing.T) {
	sh := Shape{
		{Start: 0, Step: 1, Stop: 2},
		{Start: 0, Step: 1, Stop: 3},
		{Start: 0, Step: 1, Stop: 5},
	}
	st := sh.Strides()
	if st[0] != 15 || st[1] != 5 || st[2] != 1 {
		t.Errorf("strides = %v", st)
	}
}

func TestEqual(t *testing.T) {
	a := Shape{{Name: "x", Start: 0, Step: 1, Stop: 4}}
	b := Shape{{Name: "other", Start: 0, Step: 1, Stop: 4}}
	c := Shape{{Name: "x", Start: 0, Step: 1, Stop: 5}}
	if !a.Equal(b) {
		t.Error("names must not affect Equal")
	}
	if a.Equal(c) || a.Equal(Shape{}) {
		t.Error("geometry differences must fail Equal")
	}
}

func TestPosRejects(t *testing.T) {
	sh := Shape{{Name: "x", Start: 0, Step: 2, Stop: 8}}
	if _, ok := sh.Pos([]int64{1}); ok {
		t.Error("off-step coordinate accepted")
	}
	if _, ok := sh.Pos([]int64{8}); ok {
		t.Error("out-of-range coordinate accepted")
	}
	if _, ok := sh.Pos([]int64{0, 0}); ok {
		t.Error("wrong dimensionality accepted")
	}
}

func TestDimString(t *testing.T) {
	d := Dim{Name: "x", Start: -1, Step: 1, Stop: 5}
	if d.String() != "x[-1:1:5]" {
		t.Errorf("String = %q", d.String())
	}
}

func TestDimNNoOverflow(t *testing.T) {
	const maxI, minI = int64(1<<63 - 1), int64(-1 << 63)
	cases := []struct {
		d    Dim
		want uint64
	}{
		{Dim{Start: 0, Step: 1, Stop: maxI}, 1<<63 - 1},
		{Dim{Start: -5, Step: 1, Stop: maxI}, 1<<63 + 4},
		{Dim{Start: minI, Step: 1, Stop: maxI}, 1<<64 - 1},
		{Dim{Start: maxI, Step: -1, Stop: minI}, 1<<64 - 1},
		{Dim{Start: 0, Step: minI, Stop: minI}, 1},
		{Dim{Start: minI, Step: maxI, Stop: maxI}, 3},
	}
	for _, c := range cases {
		if got := c.d.extent(); got != c.want {
			t.Errorf("%v.extent() = %d, want %d", c.d, got, c.want)
		}
		if got := c.d.N(); got < 0 {
			t.Errorf("%v.N() = %d, must not wrap negative", c.d, got)
		}
	}
}

func TestShapeCheck(t *testing.T) {
	const maxI = int64(1<<63 - 1)
	ok := []Shape{
		{{Name: "x", Start: 0, Step: 1, Stop: 4}, {Name: "y", Start: 0, Step: 1, Stop: 4}},
		{{Name: "x", Start: 0, Step: 1, Stop: MaxCells}},
		{{Name: "x", Start: 0, Step: 1, Stop: 1 << 16}, {Name: "y", Start: 0, Step: 1, Stop: 1 << 15}},
		{{Name: "x", Start: 5, Step: 1, Stop: 0}, {Name: "y", Start: 0, Step: 1, Stop: 1 << 20}},
	}
	for _, sh := range ok {
		if err := sh.Check(); err != nil {
			t.Errorf("%v: unexpected error %v", sh, err)
		}
	}
	bad := []Shape{
		{{Name: "x", Start: 0, Step: 0, Stop: 4}},
		{{Name: "x", Start: 0, Step: 1, Stop: MaxCells + 1}},
		{{Name: "x", Start: 0, Step: 1, Stop: maxI}},
		// 2^32 x 2^32 wraps an int64 product to zero.
		{{Name: "x", Start: 0, Step: 1, Stop: 1 << 32}, {Name: "y", Start: 0, Step: 1, Stop: 1 << 32}},
		{{Name: "x", Start: 0, Step: 1, Stop: 1 << 16}, {Name: "y", Start: 0, Step: 1, Stop: 1<<15 + 1}},
		// An empty dimension does not excuse an oversized one.
		{{Name: "x", Start: 5, Step: 1, Stop: 0}, {Name: "y", Start: 0, Step: 1, Stop: maxI}},
	}
	for _, sh := range bad {
		if err := sh.Check(); err == nil {
			t.Errorf("%v: accepted", sh)
		}
	}
}
