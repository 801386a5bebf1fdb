package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// point_rw: two clients on a directory-backed store with the default
// group commit and checkpoint threshold. Most statements are point reads
// with seeded coordinates; the rest are single-cell INSERTs, single-row
// UPDATEs and Game of Life generations. Every written object has one
// writer: client c owns array w<c>, table t<c> and the boards l<c>a/l<c>b.
const (
	prSide      = 512 // static array pr, the target of the point reads
	prOwnSide   = 256 // each client's array and Life boards
	prTableRows = 1000
)

type pointRW struct {
	pr     []int64
	tables [2][]int64 // initial v of t0 and t1 by id
	life   [2][2][]int64
}

func newPointRW(seed int64) (*pointRW, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &pointRW{pr: randomInts(rng, prSide*prSide, 1000000)}
	for c := range w.tables {
		w.tables[c] = randomInts(rng, prTableRows, 1000000)
		var err error
		if w.life[c], err = lifeBoard(rng, prOwnSide, prOwnSide); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *pointRW) clients() int { return 2 }

// deck is 80% point reads and 20% writes, of which one in 400 is a Game
// of Life generation: rare, but each writes 64K cells, so the WAL
// crosses the checkpoint threshold several times per run.
func (w *pointRW) deck() []string {
	d := make([]string, 0, 2000)
	for _, c := range []struct {
		class string
		n     int
	}{{"read", 1200}, {"read_own", 400}, {"insert", 200}, {"update", 199}, {"life_step", 1}} {
		for i := 0; i < c.n; i++ {
			d = append(d, c.class)
		}
	}
	return d
}

func (w *pointRW) describe() map[string]any {
	return map[string]any{
		"store": "directory", "group_commit_batches": core.DefaultCommitQueue,
		"checkpoint_bytes": core.DefaultCheckpointBytes,
		"arrays":           fmt.Sprintf("pr: %dx%d int; w<c>, l<c>a, l<c>b: %dx%d int", prSide, prSide, prOwnSide, prOwnSide),
		"tables":           fmt.Sprintf("t<c>: %d rows", prTableRows),
	}
}

func (w *pointRW) open(dir string) (*core.DB, *syncFS, error) {
	fs := newSyncFS()
	db, err := core.OpenWithFS(dir, core.DefaultCheckpointBytes, fs)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*core.DB, *syncFS, error) {
		db.Close()
		return nil, nil, err
	}
	arr := func(name string, side int) string {
		return fmt.Sprintf(`CREATE ARRAY %s (x INT DIMENSION[0:1:%[2]d], y INT DIMENSION[0:1:%[2]d], v INT DEFAULT 0)`, name, side)
	}
	if _, err := db.Exec(arr("pr", prSide)); err != nil {
		return fail(err)
	}
	if err := db.BulkSetAttrInts("pr", "v", w.pr); err != nil {
		return fail(err)
	}
	for c := 0; c < 2; c++ {
		ddl := fmt.Sprintf("%s; %s; %s; CREATE TABLE t%d (id INT, v INT)",
			arr(fmt.Sprintf("w%d", c), prOwnSide), arr(fmt.Sprintf("l%da", c), prOwnSide),
			arr(fmt.Sprintf("l%db", c), prOwnSide), c)
		if _, err := db.Exec(ddl); err != nil {
			return fail(err)
		}
		rows := make([]string, prTableRows)
		for id, v := range w.tables[c] {
			rows[id] = fmt.Sprintf("(%d, %d)", id, v)
		}
		if err := insertRows(db, fmt.Sprintf("t%d", c), rows, 500); err != nil {
			return fail(err)
		}
		if err := db.BulkSetAttrInts(fmt.Sprintf("l%da", c), "v", w.life[c][0]); err != nil {
			return fail(err)
		}
	}
	return db, fs, nil
}

func (w *pointRW) references(*core.DB) error { return nil }

func (w *pointRW) newState() state {
	s := &pointState{w: w}
	for c := range s.own {
		s.own[c] = &ownObjects{
			cells: make([]int64, prOwnSide*prOwnSide),
			rows:  append([]int64(nil), w.tables[c]...),
			life:  &lifePair{names: [2]string{fmt.Sprintf("l%da", c), fmt.Sprintf("l%db", c)}, gens: w.life[c]},
		}
	}
	return s
}

type pointState struct {
	w   *pointRW
	own [2]*ownObjects
}

// ownObjects models the objects one client writes: their contents as of
// the client's last acknowledged write.
type ownObjects struct {
	cells   []int64 // w<c>, x-major
	rows    []int64 // t<c>.v by id
	written []int   // cells written so far, as x-major indexes
	updated []int   // row ids updated so far
	life    *lifePair
	steps   int
}

func (s *pointState) next(c int, class string, rng *rand.Rand) stmt {
	o := s.own[c]
	switch class {
	case "read":
		x, y := rng.Intn(prSide), rng.Intn(prSide)
		return stmt{class: class, sql: fmt.Sprintf(`SELECT v FROM pr WHERE x = %d AND y = %d`, x, y),
			check: wantScalar(s.w.pr[x*prSide+y])}
	case "read_own":
		if rng.Intn(2) == 0 {
			i := rng.Intn(len(o.cells))
			if len(o.written) > 0 {
				i = o.written[rng.Intn(len(o.written))]
			}
			return stmt{class: class, sql: fmt.Sprintf(`SELECT v FROM w%d WHERE x = %d AND y = %d`, c, i/prOwnSide, i%prOwnSide),
				check: wantScalar(o.cells[i])}
		}
		id := rng.Intn(prTableRows)
		if len(o.updated) > 0 {
			id = o.updated[rng.Intn(len(o.updated))]
		}
		return stmt{class: class, sql: fmt.Sprintf(`SELECT v FROM t%d WHERE id = %d`, c, id), check: wantScalar(o.rows[id])}
	case "insert":
		i, v := rng.Intn(len(o.cells)), int64(1+rng.Intn(1000000))
		return stmt{class: class, write: true,
			sql:   fmt.Sprintf(`INSERT INTO w%d VALUES (%d, %d, %d)`, c, i/prOwnSide, i%prOwnSide, v),
			check: wantAffected(1),
			acked: func() {
				o.cells[i] = v
				o.written = append(o.written, i)
			}}
	case "update":
		id, v := rng.Intn(prTableRows), int64(rng.Intn(1000000))
		return stmt{class: class, write: true,
			sql:   fmt.Sprintf(`UPDATE t%d SET v = %d WHERE id = %d`, c, v, id),
			check: wantAffected(1),
			acked: func() {
				o.rows[id] = v
				o.updated = append(o.updated, id)
			}}
	case "life_step":
		st := o.life.step()
		acked := st.acked
		st.acked = func() {
			acked()
			o.steps++
		}
		return st
	}
	panic("point_rw: unknown class " + class)
}

// lost compares the store recovered from the crash image with the model:
// every cell, row and board must hold its last acknowledged value.
func (s *pointState) lost(db *core.DB) (int, error) {
	missing := 0
	for c, o := range s.own {
		cells, _, err := db.ReadAttrInts(fmt.Sprintf("w%d", c), "v")
		if err != nil {
			return 0, err
		}
		for i, v := range o.cells {
			if cells[i] != v {
				missing++
			}
		}
		res, err := db.Query(fmt.Sprintf(`SELECT id, v FROM t%d`, c))
		if err != nil {
			return 0, err
		}
		got := make([]int64, prTableRows)
		for i := 0; i < res.NumRows(); i++ {
			id, _ := res.Value(i, 0).AsInt()
			v, _ := res.Value(i, 1).AsInt()
			if id >= 0 && id < prTableRows {
				got[id] = v
			}
		}
		for id, v := range o.rows {
			if got[id] != v {
				missing++
			}
		}
		l := o.life
		for b, name := range l.names {
			want := l.gens[b] // board b holds generation parity b once written
			if b == 1 && o.steps == 0 {
				want = make([]int64, len(l.gens[0]))
			}
			cells, _, err := db.ReadAttrInts(name, "v")
			if err != nil {
				return 0, err
			}
			for i := range want {
				if cells[i] != want[i] {
					missing++
					break
				}
			}
		}
	}
	return missing, nil
}

// lifeStepQuery is the paper's §4 generation step, reading one board and
// writing the next generation into another (so the statement can run
// twice with the same effect).
func lifeStepQuery(from, to string) string {
	return fmt.Sprintf(`INSERT INTO %[2]s SELECT [x], [y], CASE WHEN SUM(v) = 3 OR (SUM(v) = 4 AND v = 1) THEN 1 ELSE 0 END FROM %[1]s GROUP BY %[1]s[x-1:x+2][y-1:y+2]`, from, to)
}

// lifePair is a client's two Game of Life boards: a generation step
// reads the current one and writes the other.
type lifePair struct {
	names [2]string
	gens  [2][]int64
	cur   int // index of the board holding the current generation, which has parity cur
}

func (l *lifePair) step() stmt {
	from, to := l.cur, 1-l.cur
	return stmt{class: "life_step", write: true, sql: lifeStepQuery(l.names[from], l.names[to]),
		check: wantAffected(len(l.gens[0])),
		acked: func() { l.cur = to }}
}
