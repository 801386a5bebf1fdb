package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/scenarios"
	"repro/internal/server/client"
)

// stmt is one statement a client sends, with the check its answer must
// pass.
type stmt struct {
	class string
	sql   string
	write bool
	// check validates the wire result; nil accepts any successful result.
	check func(*client.Result) error
	// acked updates the client's model once the server acknowledged the
	// write.
	acked func()
	// repeat is set by the loop when the exact text was sent before.
	repeat bool
}

// workload is one traffic mix over inputs generated from the seed.
type workload interface {
	// clients is the number of closed-loop clients (one connection each).
	clients() int
	// deck lists the statement classes of one cycle. Every client runs
	// whole cycles, each in a freshly shuffled order, so the class mix of
	// a run is exact.
	deck() []string
	// open creates a database in dir and loads the seeded inputs. fs is
	// non-nil for a directory-backed store.
	open(dir string) (db *core.DB, fs *syncFS, err error)
	// references computes the expected answers that need the engine,
	// against a freshly loaded database at one kernel thread.
	references(db *core.DB) error
	// newState returns the model of a freshly loaded database.
	newState() state
	// describe names the workload's settings for the result file.
	describe() map[string]any
}

// state is the model a run's statements are drawn from and checked
// against. next is called only from client c's goroutine, and each
// client's part of the model is its own.
type state interface {
	next(c int, class string, rng *rand.Rand) stmt
	// lost receives the database recovered from the store's crash image
	// (nil for in-memory workloads) and returns how many acknowledged
	// writes it does not hold.
	lost(db *core.DB) (int, error)
}

// ------------------------------------------------------------ checks

// divergence is what a check returns for an answer that is correct but
// not bit for bit the one-thread engine's: float SUM depends on the
// kernel thread count, an open defect listed in ROADMAP.md. The loop
// counts such a statement in error_rate, not as a failure.
type divergence struct{ msg string }

func (d *divergence) Error() string { return d.msg }

// cellInt reads an integral JSON number (the wire carries ints as JSON
// numbers, which decode to float64).
func cellInt(v any) (int64, error) {
	f, ok := v.(float64)
	if !ok || f != math.Trunc(f) {
		return 0, fmt.Errorf("want an integer, got %v (%T)", v, v)
	}
	return int64(f), nil
}

func cellFloat(v any) (float64, error) {
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("want a number, got %v (%T)", v, v)
	}
	return f, nil
}

// rowInts decodes the first n cells of a row as integers.
func rowInts(row []any, n int) ([]int64, error) {
	if len(row) < n {
		return nil, fmt.Errorf("row has %d cells, want %d", len(row), n)
	}
	out := make([]int64, n)
	for i := range out {
		v, err := cellInt(row[i])
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func wantRows(r *client.Result, n int) error {
	if len(r.Rows) != n {
		return fmt.Errorf("%d rows, want %d", len(r.Rows), n)
	}
	return nil
}

func wantAffected(n int) func(*client.Result) error {
	return func(r *client.Result) error {
		if r.Affected != n {
			return fmt.Errorf("affected %d, want %d", r.Affected, n)
		}
		return nil
	}
}

// wantScalar checks a one-row, one-column integer answer.
func wantScalar(want int64) func(*client.Result) error {
	return func(r *client.Result) error {
		if err := wantRows(r, 1); err != nil {
			return err
		}
		got, err := rowInts(r.Rows[0], 1)
		if err != nil {
			return err
		}
		if got[0] != want {
			return fmt.Errorf("got %d, want %d", got[0], want)
		}
		return nil
	}
}

// mix64 is the splitmix64 finaliser; sums of it make order-independent
// checksums of result rows.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cellSum is the checksum term of one (x, y, v) row.
func cellSum(x, y, v int64) uint64 { return mix64(uint64(x)<<40 ^ uint64(y)<<20 ^ uint64(v)) }

// wantCells checks an (x, y, v) result by row count and checksum.
func wantCells(rows int, sum uint64) func(*client.Result) error {
	return func(r *client.Result) error {
		if err := wantRows(r, rows); err != nil {
			return err
		}
		var got uint64
		for _, row := range r.Rows {
			c, err := rowInts(row, 3)
			if err != nil {
				return err
			}
			got += cellSum(c[0], c[1], c[2])
		}
		if got != sum {
			return fmt.Errorf("checksum %x, want %x", got, sum)
		}
		return nil
	}
}

// ---------------------------------------------------------- loading

// insertRows loads rows with batched multi-row INSERTs.
func insertRows(db *core.DB, table string, rows []string, batch int) error {
	for lo := 0; lo < len(rows); lo += batch {
		hi := min(lo+batch, len(rows))
		q := "INSERT INTO " + table + " VALUES " + strings.Join(rows[lo:hi], ", ")
		if _, err := db.Exec(q); err != nil {
			return fmt.Errorf("load %s: %w", table, err)
		}
	}
	return nil
}

// randomInts returns n values in [0, limit).
func randomInts(rng *rand.Rand, n, limit int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(rng.Intn(limit))
	}
	return out
}

// ------------------------------------------------------- Game of Life

// lifePatterns are oscillators of period 1 or 2, each within 4×4 cells.
var lifePatterns = [][][2]int{
	{{0, 1}, {1, 1}, {2, 1}},                         // blinker
	{{1, 0}, {1, 1}, {1, 2}},                         // blinker, turned
	{{0, 0}, {1, 0}, {0, 1}, {1, 1}},                 // block
	{{1, 0}, {2, 0}, {0, 1}, {3, 1}, {1, 2}, {2, 2}}, // beehive
	{{1, 0}, {2, 0}, {3, 0}, {0, 1}, {1, 1}, {2, 1}}, // toad
	{{0, 0}, {1, 0}, {0, 1}, {3, 2}, {2, 3}, {3, 3}}, // beacon
	{{1, 0}, {0, 1}, {2, 1}, {1, 2}},                 // tub
	{{0, 0}, {1, 0}, {0, 1}, {2, 1}, {1, 2}},         // boat
}

// lifeBoard places seeded oscillators on a w×h board, at most one per
// 12×12 slot, so no two patterns interact. It returns generations 0 and
// 1 of the board (x-major cells, 1 = alive), computed with the native
// Game of Life, and fails unless generation 2 equals generation 0.
func lifeBoard(rng *rand.Rand, w, h int) ([2][]int64, error) {
	const slot = 12
	gen0 := make([]int64, w*h)
	for sx := 0; sx+slot <= w; sx += slot {
		for sy := 0; sy+slot <= h; sy += slot {
			if rng.Intn(8) != 0 {
				continue
			}
			p := lifePatterns[rng.Intn(len(lifePatterns))]
			ox, oy := sx+2+rng.Intn(slot-8), sy+2+rng.Intn(slot-8)
			for _, c := range p {
				gen0[(ox+c[0])*h+oy+c[1]] = 1
			}
		}
	}
	gen1 := lifeStep(gen0, w, h)
	if gen2 := lifeStep(gen1, w, h); !slices.Equal(gen2, gen0) {
		return [2][]int64{}, fmt.Errorf("life board of %dx%d does not have period 2", w, h)
	}
	return [2][]int64{gen0, gen1}, nil
}

// lifeStep advances x-major cells one generation with scenarios.NativeLife.
func lifeStep(cells []int64, w, h int) []int64 {
	n := scenarios.NewNativeLife(w, h)
	for i, v := range cells {
		n.Cells[i] = v == 1
	}
	n.Step()
	out := make([]int64, len(cells))
	for i, alive := range n.Cells {
		if alive {
			out[i] = 1
		}
	}
	return out
}

// lifeNextQuery lists the cells alive in the generation after the board's.
func lifeNextQuery(board string) string {
	return fmt.Sprintf(`SELECT x, y FROM %[1]s GROUP BY %[1]s[x-1:x+2][y-1:y+2] HAVING SUM(v) = 3 OR (SUM(v) = 4 AND v = 1)`, board)
}

// wantAlive checks an (x, y) answer against a board's live cells.
func wantAlive(board []int64, h int) func(*client.Result) error {
	alive := 0
	for _, v := range board {
		alive += int(v)
	}
	return func(r *client.Result) error {
		if err := wantRows(r, alive); err != nil {
			return err
		}
		for _, row := range r.Rows {
			c, err := rowInts(row, 2)
			if err != nil {
				return err
			}
			if c[1] < 0 || c[1] >= int64(h) || c[0] < 0 || int(c[0])*h+int(c[1]) >= len(board) || board[int(c[0])*h+int(c[1])] != 1 {
				return fmt.Errorf("cell (%d, %d) is not alive in the reference", c[0], c[1])
			}
		}
		return nil
	}
}
