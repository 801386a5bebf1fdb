package core

import (
	"strings"
	"sync"
	"testing"
)

// TestTileStepForm exercises the three-part tile form [lo:step:hi]: sample
// every second cell within the tile window.
func TestTileStepForm(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY s (x INT DIMENSION[0:1:8], v INT DEFAULT 0)`)
	db.MustQuery(`UPDATE s SET v = x`)
	// Tile covers x, x+2 (step 2 within [x, x+4)).
	res := db.MustQuery(`SELECT [x], SUM(v) FROM s GROUP BY s[x:2:x+4]`)
	sum := res.Cols[1]
	// Anchor 0: cells 0 and 2 → 2. Anchor 5: cells 5 and 7 → 12.
	if sum.Get(0).Int64() != 2 {
		t.Errorf("anchor 0 sum = %v, want 2", sum.Get(0))
	}
	if sum.Get(5).Int64() != 12 {
		t.Errorf("anchor 5 sum = %v, want 12", sum.Get(5))
	}
	// Anchor 7: only cell 7 in bounds → 7.
	if sum.Get(7).Int64() != 7 {
		t.Errorf("anchor 7 sum = %v, want 7", sum.Get(7))
	}
}

func TestTileMinMaxCountStar(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 0)`)
	db.MustQuery(`UPDATE a SET v = CASE WHEN x = 2 THEN 9 ELSE x END`)
	db.MustQuery(`DELETE FROM a WHERE x = 1`)
	res := db.MustQuery(`SELECT [x], MIN(v), MAX(v), COUNT(v), COUNT(*) FROM a GROUP BY a[x-1:x+2]`)
	// Anchor 0: cells {0(=0), 1(hole)}: min=0 max=0 count(v)=1 count(*)=2.
	row := func(x int, col int) int64 {
		v := res.Cols[col].Get(x)
		if v.IsNull() {
			return -999
		}
		n, _ := v.AsInt()
		return n
	}
	if row(0, 1) != 0 || row(0, 2) != 0 || row(0, 3) != 1 || row(0, 4) != 2 {
		t.Errorf("anchor 0: %d %d %d %d", row(0, 1), row(0, 2), row(0, 3), row(0, 4))
	}
	// Anchor 2: cells {1(hole), 2(=9), 3(=3)}: min=3 max=9 count=2 count*=3.
	if row(2, 1) != 3 || row(2, 2) != 9 || row(2, 3) != 2 || row(2, 4) != 3 {
		t.Errorf("anchor 2: %d %d %d %d", row(2, 1), row(2, 2), row(2, 3), row(2, 4))
	}
}

// TestTileAnchorValueReference checks the Game-of-Life idiom: the
// projection mixes the aggregate with the anchor cell's own value.
func TestTileAnchorValueReference(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY a (x INT DIMENSION[0:1:5], v INT DEFAULT 1)`)
	res := db.MustQuery(`SELECT [x], SUM(v) - v FROM a GROUP BY a[x-1:x+2]`)
	want := []int64{1, 2, 2, 2, 1} // neighbour counts on a line of ones
	for i, w := range want {
		if got := res.Cols[1].Get(i).Int64(); got != w {
			t.Errorf("anchor %d: %d, want %d", i, got, w)
		}
	}
}

func TestConcurrentReaders(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY m (x INT DIMENSION[0:1:32], y INT DIMENSION[0:1:32], v INT DEFAULT 1)`)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := `SELECT SUM(v) FROM m`
			if i%2 == 0 {
				q = `SELECT [x], [y], AVG(v) FROM m GROUP BY m[x:x+2][y:y+2]`
			}
			if _, err := db.Query(q); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestConcurrentMixedReadWrite(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE t (a INT)`)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				db.Query(`INSERT INTO t VALUES (1)`)
			} else {
				db.Query(`SELECT COUNT(*) FROM t`)
			}
		}(i)
	}
	wg.Wait()
	res := db.MustQuery(`SELECT COUNT(*) FROM t`)
	if res.Value(0, 0).Int64() != 4 {
		t.Errorf("count = %v, want 4", res.Value(0, 0))
	}
}

func TestUpdateWithCellReference(t *testing.T) {
	// Shift-left via self-referencing UPDATE: all reads see the pre-update
	// state (simultaneous assignment).
	db := New()
	db.MustQuery(`CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 0)`)
	db.MustQuery(`UPDATE a SET v = x * 10`)
	db.MustQuery(`UPDATE a SET v = COALESCE(a[x+1].v, -1)`)
	res := db.MustQuery(`SELECT v FROM a ORDER BY x`)
	want := []string{"10", "20", "30", "-1"}
	for i, w := range want {
		if res.Value(i, 0).String() != w {
			t.Errorf("cell %d = %v, want %s", i, res.Value(i, 0), w)
		}
	}
}

func TestInsertOutsideFixedArrayFails(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 0)`)
	if _, err := db.Query(`INSERT INTO a VALUES (9, 1)`); err == nil {
		t.Fatal("insert outside fixed range must fail")
	}
	// Off-grid insert on a stepped dimension fails too.
	db.MustQuery(`CREATE ARRAY s (x INT DIMENSION[0:2:8], v INT DEFAULT 0)`)
	if _, err := db.Query(`INSERT INTO s VALUES (3, 1)`); err == nil {
		t.Fatal("off-grid insert must fail")
	}
}

// oversizedArrays are CREATE ARRAY shapes no process can materialise: a
// 2^32 x 2^32 grid (whose int64 cell count wraps to zero) and one
// dimension spanning the whole int64 range.
var oversizedArrays = []string{
	`CREATE ARRAY big2 (x INT DIMENSION[0:1:4294967296], y INT DIMENSION[0:1:4294967296], v INT DEFAULT 0)`,
	`CREATE ARRAY big1 (x INT DIMENSION[0:1:9223372036854775807], v INT DEFAULT 0)`,
}

// TestOversizedArrayCleanError pins that shapes past shape.MaxCells end
// in a clean error, never a panic or an allocation the process cannot
// survive — on CREATE, ALTER DIMENSION and unbounded growth alike.
func TestOversizedArrayCleanError(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY g (x INT DIMENSION, v INT DEFAULT 0)`)
	db.MustQuery(`CREATE ARRAY f (x INT DIMENSION[0:1:4], v INT DEFAULT 0)`)
	stmts := append(append([]string{}, oversizedArrays...),
		`ALTER ARRAY f ALTER DIMENSION x SET RANGE [0:1:9223372036854775807]`,
		`INSERT INTO g VALUES (0, 1), (9223372036854775806, 1)`)
	for _, q := range stmts {
		_, err := db.Query(q)
		if err == nil || strings.Contains(err.Error(), "internal error") ||
			!strings.Contains(err.Error(), "cells") {
			t.Errorf("%s: got %v, want a clean cell-limit error", q, err)
		}
	}
	expectRows(t, db, `SELECT COUNT(*) FROM f`, []string{"4"})
	expectRows(t, db, `SELECT COUNT(*) FROM g`, []string{"0"})
	if db.cat.Exists("big1") || db.cat.Exists("big2") {
		t.Fatal("a rejected array was registered")
	}
}

func TestArrayGrowthPreservesData(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY ts (t INT DIMENSION, v INT DEFAULT -1)`)
	db.MustQuery(`INSERT INTO ts VALUES (5, 50)`)
	db.MustQuery(`INSERT INTO ts VALUES (2, 20)`)
	db.MustQuery(`INSERT INTO ts VALUES (7, 70)`)
	res := db.MustQuery(`SELECT t, v FROM ts ORDER BY t`)
	want := []string{"2|20", "3|-1", "4|-1", "5|50", "6|-1", "7|70"}
	got := allRows(res)
	if len(got) != len(want) {
		t.Fatalf("rows: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAlterDimensionShrinkDiscards(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY a (x INT DIMENSION[0:1:6], v INT DEFAULT 0)`)
	db.MustQuery(`UPDATE a SET v = x`)
	db.MustQuery(`ALTER ARRAY a ALTER DIMENSION x SET RANGE [2:1:4]`)
	res := db.MustQuery(`SELECT x, v FROM a ORDER BY x`)
	got := allRows(res)
	if len(got) != 2 || got[0] != "2|2" || got[1] != "3|3" {
		t.Errorf("shrunk array: %v", got)
	}
}

func TestTwoPartDimensionRange(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY a (x INT DIMENSION[3:6], v INT DEFAULT 0)`)
	res := db.MustQuery(`SELECT COUNT(*) FROM a`)
	if res.Value(0, 0).Int64() != 3 {
		t.Errorf("cells = %v, want 3 (step defaults to 1)", res.Value(0, 0))
	}
}

func TestGridErrors(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY a (x INT DIMENSION[0:1:3], v INT DEFAULT 0)`)
	res := db.MustQuery(`SELECT [x], v FROM a`)
	if _, err := res.Grid(); err == nil {
		t.Error("1-D grid render must fail")
	}
	res = db.MustQuery(`SELECT x, v FROM a`)
	if _, err := res.Grid(); err == nil {
		t.Error("table grid render must fail")
	}
}

func TestSlabWithSteppedDim(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY s (x INT DIMENSION[10:5:50], v INT DEFAULT 1)`)
	// Values 10,15,...,45. The slab bounds must respect the grid.
	res := db.MustQuery(`SELECT x FROM s WHERE x > 12 AND x <= 30 ORDER BY x`)
	got := allRows(res)
	want := []string{"15", "20", "25", "30"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("slab on stepped dim: %v", got)
	}
	// EXPLAIN confirms the pushdown happened.
	plan := db.MustQuery(`EXPLAIN SELECT x FROM s WHERE x > 12 AND x <= 30`)
	if !strings.Contains(plan.Text, "slab") {
		t.Errorf("no slab in plan:\n%s", plan.Text)
	}
}

func TestDeleteEntireArrayThenAggregate(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 5)`)
	db.MustQuery(`DELETE FROM a`)
	res := db.MustQuery(`SELECT SUM(v), COUNT(*), COUNT(v) FROM a`)
	if rowStr(res, 0) != "null|4|0" {
		t.Errorf("after full delete: %s", rowStr(res, 0))
	}
	// Cells still exist: INSERT can refill them.
	db.MustQuery(`INSERT INTO a SELECT [x], 1 FROM a`)
	res = db.MustQuery(`SELECT SUM(v) FROM a`)
	if res.Value(0, 0).Int64() != 4 {
		t.Errorf("refill failed: %v", res.Value(0, 0))
	}
}

func TestNestedTileInSubquery(t *testing.T) {
	// Aggregate over the result of a tiling query via a derived table.
	db := New()
	db.MustQuery(`CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 1)`)
	res := db.MustQuery(`SELECT MAX(t.s) FROM (
		SELECT [x], [y], SUM(v) AS s FROM m GROUP BY m[x-1:x+2][y-1:y+2]
	) AS t`)
	if res.Value(0, 0).Int64() != 9 {
		t.Errorf("max tile sum = %v, want 9", res.Value(0, 0))
	}
}

func TestDoubleAttributeTiling(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY w (x INT DIMENSION[0:1:4], a INT DEFAULT 1, b INT DEFAULT 2)`)
	res := db.MustQuery(`SELECT [x], SUM(a), SUM(b), SUM(a + b) FROM w GROUP BY w[x:x+2]`)
	// Anchor 0: two cells → sums 2, 4, 6.
	if res.Cols[1].Get(0).Int64() != 2 || res.Cols[2].Get(0).Int64() != 4 || res.Cols[3].Get(0).Int64() != 6 {
		t.Errorf("multi-attr tile sums: %v %v %v",
			res.Cols[1].Get(0), res.Cols[2].Get(0), res.Cols[3].Get(0))
	}
}

func TestCoalesceOverColumns(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE t (a INT, b INT)`)
	db.MustQuery(`INSERT INTO t VALUES (NULL, 2), (1, NULL), (NULL, NULL)`)
	expectRows(t, db, `SELECT COALESCE(a, b, 0) FROM t`, []string{"2", "1", "0"})
}

func TestRollbackAfterPartialBatch(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (1)`)
	// The batch fails mid-way; the first statement's effect stays (each
	// statement autocommits), the failing one has no partial effect.
	_, err := db.Exec(`INSERT INTO t VALUES (2); INSERT INTO nosuch VALUES (3);`)
	if err == nil {
		t.Fatal("expected error")
	}
	expectRows(t, db, `SELECT COUNT(*) FROM t`, []string{"2"})
}

func TestPlanRendersSlabAndTile(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY m (x INT DIMENSION[0:1:16], y INT DIMENSION[0:1:16], v INT DEFAULT 0)`)
	res := db.MustQuery(`PLAN SELECT v FROM m WHERE x = 3 AND y >= 2 AND y < 5`)
	if !strings.Contains(res.Text, "array.slab") {
		t.Errorf("slab missing:\n%s", res.Text)
	}
	res = db.MustQuery(`PLAN SELECT [x], [y], SUM(v) FROM m GROUP BY m[x-4:x+5][y-4:y+5]`)
	if !strings.Contains(res.Text, "array.tileaggsat") {
		t.Errorf("SAT kernel missing for large tile:\n%s", res.Text)
	}
}
