package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/scenarios"
	"repro/internal/server/client"
)

// result_stream: statements over a 512×512 int array whose answers have
// 26K to 262K rows, so rendering, encoding, transfer and decoding carry
// almost all of the time.
const (
	rsSide  = 512
	rsRange = 26 // value width of the 10%-selective range
)

type stream struct {
	img    []int64    // x-major values in [0, 256)
	sum    uint64     // checksum of the full dump
	smooth *img.Image // scenarios.NativeSmooth of img
}

func newStream(seed int64) *stream {
	w := &stream{img: randomInts(rand.New(rand.NewSource(seed)), rsSide*rsSide, 256)}
	m := img.New(rsSide, rsSide)
	for i, v := range w.img {
		w.sum += cellSum(int64(i/rsSide), int64(i%rsSide), v)
		m.Set(i/rsSide, i%rsSide, uint8(v))
	}
	w.smooth = scenarios.NativeSmooth(m)
	return w
}

func (w *stream) clients() int { return 1 }

// deck is ordered by typical latency (README): the median falls well
// inside the ranges and the 90th percentile between the dumps and the
// smoothings, which take about the same time.
func (w *stream) deck() []string {
	return []string{"range", "range", "range", "range", "range", "range", "range", "range", "dump", "smooth"}
}

func (w *stream) describe() map[string]any {
	return map[string]any{"store": "in-memory", "arrays": fmt.Sprintf("s: %dx%d int", rsSide, rsSide)}
}

func (w *stream) open(string) (*core.DB, *syncFS, error) {
	db := core.New()
	if _, err := db.Exec(fmt.Sprintf(`CREATE ARRAY s (x INT DIMENSION[0:1:%[1]d], y INT DIMENSION[0:1:%[1]d], v INT DEFAULT 0)`, rsSide)); err != nil {
		return nil, nil, err
	}
	if err := db.BulkSetAttrInts("s", "v", w.img); err != nil {
		return nil, nil, err
	}
	return db, nil, nil
}

func (w *stream) references(*core.DB) error { return nil }

// The workload does not write, so it is its own state.
func (w *stream) newState() state            { return w }
func (w *stream) lost(*core.DB) (int, error) { return 0, nil }

func (w *stream) next(_ int, class string, rng *rand.Rand) stmt {
	switch class {
	case "dump":
		return stmt{class: class, sql: `SELECT x, y, v FROM s`, check: wantCells(len(w.img), w.sum)}
	case "range":
		lo := int64(rng.Intn(256 - rsRange))
		var sum uint64
		n := 0
		for i, v := range w.img {
			if v >= lo && v < lo+rsRange {
				sum += cellSum(int64(i/rsSide), int64(i%rsSide), v)
				n++
			}
		}
		return stmt{class: class, sql: fmt.Sprintf(`SELECT x, y, v FROM s WHERE v >= %d AND v < %d`, lo, lo+rsRange),
			check: wantCells(n, sum)}
	case "smooth":
		return stmt{class: class, sql: scenarios.SmoothQuery("s"), check: wantImage(w.smooth)}
	}
	panic("result_stream: unknown class " + class)
}

// wantImage checks an ([x], [y], v) array answer cell by cell.
func wantImage(ref *img.Image) func(*client.Result) error {
	return func(r *client.Result) error {
		if err := wantRows(r, ref.W*ref.H); err != nil {
			return err
		}
		for _, row := range r.Rows {
			c, err := rowInts(row, 3)
			if err != nil {
				return err
			}
			if c[0] < 0 || c[0] >= int64(ref.W) || c[1] < 0 || c[1] >= int64(ref.H) || int64(ref.At(int(c[0]), int(c[1]))) != c[2] {
				return fmt.Errorf("cell (%d, %d) = %d differs from the native smoothing", c[0], c[1], c[2])
			}
		}
		return nil
	}
}
