package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/server/client"
)

// array_analytics: read-only paper queries over two 1024×1024 int arrays
// (16 slabs of 64K cells each: an image and a Game of Life board) and a
// star schema, all with small answers, so execution dominates.
const (
	aaSide      = 1024
	aaFactRows  = 1 << 17
	aaDimRows   = 1000
	aaDimAttrs  = 100
	aaEdgeBand  = 256
	aaLoadBatch = 2048
)

var (
	aaTileSizes  = []int{32, 64}
	aaStarLimits = []int{10, 20, 30, 40, 50}
	aaEdgeLimits = []int{100, 200, 300}
)

type analytics struct {
	img   []int64    // x-major pixel values in [0, 256)
	life  [2][]int64 // board generations 0 and 1
	factA []int64    // fact columns: a_id, b_id, v; p is factP
	factB []int64
	factV []int64
	factP []string // DOUBLE literals with two decimals
	factC []int64  // the same values in hundredths, exactly
	dimA  []int64  // attr by id
	dimB  []int64
	tiles map[int]map[[2]int64]tileRef
	hist  map[int64]int64
	edges map[[2]int]int64 // (band start, limit) → count
	stars map[int]map[int64]starRef
}

type tileRef struct {
	sum, count int64
	avg        float64 // from the engine at one thread
}

type starRef struct {
	sum, count int64
	cents      int64   // exact SUM(p) in hundredths
	psum       float64 // from the engine at one thread
}

func newAnalytics(seed int64) (*analytics, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &analytics{img: randomInts(rng, aaSide*aaSide, 256)}
	var err error
	if w.life, err = lifeBoard(rng, aaSide, aaSide); err != nil {
		return nil, err
	}
	w.dimA = randomInts(rng, aaDimRows, aaDimAttrs)
	w.dimB = randomInts(rng, aaDimRows, aaDimAttrs)
	w.factA = randomInts(rng, aaFactRows, aaDimRows)
	w.factB = randomInts(rng, aaFactRows, aaDimRows)
	w.factV = randomInts(rng, aaFactRows, 100)
	w.factP = make([]string, aaFactRows)
	w.factC = make([]int64, aaFactRows)
	for i := range w.factP {
		units, hundredths := rng.Intn(1000), rng.Intn(100)
		w.factP[i] = fmt.Sprintf("%d.%02d", units, hundredths)
		w.factC[i] = int64(units*100 + hundredths)
	}
	w.goReferences()
	return w, nil
}

func (w *analytics) clients() int { return 1 }

// deck is ordered by typical latency (README): the median falls among
// the histograms and the 90th percentile among the tile aggregations.
func (w *analytics) deck() []string {
	return []string{"star", "star", "life_next", "life_next", "hist", "hist", "edge", "edge", "tile", "tile"}
}

func (w *analytics) describe() map[string]any {
	return map[string]any{
		"store": "in-memory", "arrays": fmt.Sprintf("img, life: %[1]dx%[1]d int", aaSide),
		"fact_rows": aaFactRows, "dim_rows": aaDimRows,
	}
}

func (w *analytics) open(string) (*core.DB, *syncFS, error) {
	db := core.New()
	ddl := fmt.Sprintf(`CREATE ARRAY img (x INT DIMENSION[0:1:%[1]d], y INT DIMENSION[0:1:%[1]d], v INT DEFAULT 0);
CREATE ARRAY life (x INT DIMENSION[0:1:%[1]d], y INT DIMENSION[0:1:%[1]d], v INT DEFAULT 0);
CREATE TABLE fact (id INT, a_id INT, b_id INT, v INT, p DOUBLE);
CREATE TABLE dim_a (id INT, attr INT);
CREATE TABLE dim_b (id INT, attr INT)`, aaSide)
	if _, err := db.Exec(ddl); err != nil {
		return nil, nil, err
	}
	if err := db.BulkSetAttrInts("img", "v", w.img); err != nil {
		return nil, nil, err
	}
	if err := db.BulkSetAttrInts("life", "v", w.life[0]); err != nil {
		return nil, nil, err
	}
	for _, d := range []struct {
		name  string
		attrs []int64
	}{{"dim_a", w.dimA}, {"dim_b", w.dimB}} {
		rows := make([]string, len(d.attrs))
		for i, a := range d.attrs {
			rows[i] = fmt.Sprintf("(%d, %d)", i, a)
		}
		if err := insertRows(db, d.name, rows, aaLoadBatch); err != nil {
			return nil, nil, err
		}
	}
	rows := make([]string, aaFactRows)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, %d, %d, %d, %s)", i, w.factA[i], w.factB[i], w.factV[i], w.factP[i])
	}
	if err := insertRows(db, "fact", rows, aaLoadBatch); err != nil {
		return nil, nil, err
	}
	return db, nil, nil
}

func tileQuery(k int) string {
	return fmt.Sprintf(`SELECT x, y, SUM(v), COUNT(*), AVG(v) FROM img GROUP BY img[x:x+%[1]d][y:y+%[1]d] HAVING x %% %[1]d = 0 AND y %% %[1]d = 0`, k)
}

func starQuery(limit int) string {
	return fmt.Sprintf(`SELECT a.attr, SUM(f.v), COUNT(*), SUM(f.p) FROM fact f, dim_a a, dim_b b WHERE f.a_id = a.id AND f.b_id = b.id AND b.attr < %d GROUP BY a.attr`, limit)
}

func edgeQuery(band, limit int) string {
	return fmt.Sprintf(`SELECT COUNT(*) FROM img WHERE x >= %d AND x < %d AND ABS(v - img[x-1][y].v) + ABS(v - img[x][y-1].v) > %d`, band, band+aaEdgeBand, limit)
}

const histQuery = `SELECT v, COUNT(*) FROM img GROUP BY v ORDER BY v`

// goReferences computes the integer answers in Go from the inputs.
func (w *analytics) goReferences() {
	px := func(x, y int) int64 { return w.img[x*aaSide+y] }
	w.tiles = map[int]map[[2]int64]tileRef{}
	for _, k := range aaTileSizes {
		m := map[[2]int64]tileRef{}
		for x := 0; x < aaSide; x += k {
			for y := 0; y < aaSide; y += k {
				var r tileRef
				for i := x; i < x+k; i++ {
					for j := y; j < y+k; j++ {
						r.sum += px(i, j)
						r.count++
					}
				}
				m[[2]int64{int64(x), int64(y)}] = r
			}
		}
		w.tiles[k] = m
	}
	w.hist = map[int64]int64{}
	for _, v := range w.img {
		w.hist[v]++
	}
	w.edges = map[[2]int]int64{}
	for band := 0; band < aaSide; band += aaEdgeBand {
		for _, limit := range aaEdgeLimits {
			var n int64
			for x := max(band, 1); x < band+aaEdgeBand; x++ {
				for y := 1; y < aaSide; y++ {
					v := px(x, y)
					if abs64(v-px(x-1, y))+abs64(v-px(x, y-1)) > int64(limit) {
						n++
					}
				}
			}
			w.edges[[2]int{band, limit}] = n
		}
	}
	w.stars = map[int]map[int64]starRef{}
	for _, limit := range aaStarLimits {
		m := map[int64]starRef{}
		for i := range w.factA {
			if w.dimB[w.factB[i]] >= int64(limit) {
				continue
			}
			a := w.dimA[w.factA[i]]
			r := m[a]
			r.sum += w.factV[i]
			r.count++
			r.cents += w.factC[i]
			m[a] = r
		}
		w.stars[limit] = m
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// references adds the float answers (tile AVG, star SUM(p)), computed by
// the embedded engine at one kernel thread. The star SUM(p) reference only
// tells whether the answer depends on the thread count (divergence); the
// check itself compares with the exact sum.
func (w *analytics) references(db *core.DB) error {
	prev := par.SetThreads(1)
	defer par.SetThreads(prev)
	for _, k := range aaTileSizes {
		res, err := db.Query(tileQuery(k))
		if err != nil {
			return err
		}
		for i := 0; i < res.NumRows(); i++ {
			x, _ := res.Value(i, 0).AsInt()
			y, _ := res.Value(i, 1).AsInt()
			avg, err := res.Value(i, 4).AsFloat()
			if err != nil {
				return err
			}
			key := [2]int64{x, y}
			r, ok := w.tiles[k][key]
			if !ok {
				return fmt.Errorf("tile reference: unexpected tile (%d, %d)", x, y)
			}
			r.avg = avg
			w.tiles[k][key] = r
		}
	}
	for _, limit := range aaStarLimits {
		res, err := db.Query(starQuery(limit))
		if err != nil {
			return err
		}
		for i := 0; i < res.NumRows(); i++ {
			a, _ := res.Value(i, 0).AsInt()
			p, err := res.Value(i, 3).AsFloat()
			if err != nil {
				return err
			}
			r, ok := w.stars[limit][a]
			if !ok {
				return fmt.Errorf("star reference: unexpected group %d", a)
			}
			r.psum = p
			w.stars[limit][a] = r
		}
	}
	return nil
}

// The workload does not write, so it is its own state.
func (w *analytics) newState() state            { return w }
func (w *analytics) lost(*core.DB) (int, error) { return 0, nil }

func (w *analytics) next(_ int, class string, rng *rand.Rand) stmt {
	switch class {
	case "tile":
		k := aaTileSizes[rng.Intn(len(aaTileSizes))]
		return stmt{class: class, sql: tileQuery(k), check: w.checkTiles(k)}
	case "hist":
		return stmt{class: class, sql: histQuery, check: w.checkHist}
	case "edge":
		band := aaEdgeBand * rng.Intn(aaSide/aaEdgeBand)
		limit := aaEdgeLimits[rng.Intn(len(aaEdgeLimits))]
		return stmt{class: class, sql: edgeQuery(band, limit), check: wantScalar(w.edges[[2]int{band, limit}])}
	case "star":
		limit := aaStarLimits[rng.Intn(len(aaStarLimits))]
		return stmt{class: class, sql: starQuery(limit), check: w.checkStar(limit)}
	case "life_next":
		return stmt{class: class, sql: lifeNextQuery("life"), check: wantAlive(w.life[1], aaSide)}
	}
	panic("array_analytics: unknown class " + class)
}

func (w *analytics) checkTiles(k int) func(*client.Result) error {
	ref := w.tiles[k]
	return func(r *client.Result) error {
		if err := wantRows(r, len(ref)); err != nil {
			return err
		}
		for _, row := range r.Rows {
			c, err := rowInts(row, 4)
			if err != nil {
				return err
			}
			want, ok := ref[[2]int64{c[0], c[1]}]
			if !ok {
				return fmt.Errorf("tile (%d, %d) is not in the reference", c[0], c[1])
			}
			avg, err := cellFloat(row[4])
			if err != nil {
				return err
			}
			if c[2] != want.sum || c[3] != want.count || avg != want.avg {
				return fmt.Errorf("tile (%d, %d): sum %d count %d avg %v, want %d %d %v",
					c[0], c[1], c[2], c[3], avg, want.sum, want.count, want.avg)
			}
		}
		return nil
	}
}

func (w *analytics) checkHist(r *client.Result) error {
	if err := wantRows(r, len(w.hist)); err != nil {
		return err
	}
	keys := make([]int64, 0, len(w.hist))
	for v := range w.hist {
		keys = append(keys, v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, row := range r.Rows {
		c, err := rowInts(row, 2)
		if err != nil {
			return err
		}
		if c[0] != keys[i] || c[1] != w.hist[keys[i]] {
			return fmt.Errorf("histogram row %d: (%d, %d), want (%d, %d)", i, c[0], c[1], keys[i], w.hist[keys[i]])
		}
	}
	return nil
}

func (w *analytics) checkStar(limit int) func(*client.Result) error {
	ref := w.stars[limit]
	return func(r *client.Result) error {
		if err := wantRows(r, len(ref)); err != nil {
			return err
		}
		var div error
		for _, row := range r.Rows {
			c, err := rowInts(row, 3)
			if err != nil {
				return err
			}
			p, err := cellFloat(row[3])
			if err != nil {
				return err
			}
			want, ok := ref[c[0]]
			if !ok {
				return fmt.Errorf("star group %d is not in the reference", c[0])
			}
			exact := float64(want.cents) / 100
			if c[1] != want.sum || c[2] != want.count || math.Abs(p-exact) > sumTolerance(want.count, exact) {
				return fmt.Errorf("star group %d: sum %d count %d sum(p) %v, want %d %d %v",
					c[0], c[1], c[2], p, want.sum, want.count, exact)
			}
			if p != want.psum && div == nil {
				div = &divergence{fmt.Sprintf("star group %d: sum(p) %v, one-thread engine %v", c[0], p, want.psum)}
			}
		}
		return div
	}
}

// sumTolerance bounds the rounding error of a float64 sum of n
// non-negative decimal values whose exact sum is total, for any order of
// addition: each parsed value is off by at most one unit roundoff u,
// summing n terms in any order adds at most (n-1)u times the total
// (Higham, Accuracy and Stability of Numerical Algorithms, 4.2), and the
// reference itself is rounded once. The factor 2 covers the second-order
// terms. A missing or extra row moves the sum by at least 0.01 (or shows
// in COUNT), far above this bound at these sizes.
func sumTolerance(n int64, total float64) float64 {
	const u = 0x1p-53
	return 2 * float64(n+2) * u * total
}
