package core

import (
	"fmt"
	"strings"
	"testing"
)

// The fold-vs-column differential. The binder folds an all-literal
// expression at bind time through the scalar evaluator at n=1; the same
// expression over columns runs as MAL over the calculator kernels. Both
// paths must give an identical value and kind, or fail with the same
// error text.

// foldArg is one operand: the column type it is stored in and its SQL
// literal. A NULL literal is typed with a CAST on the folding side, so
// both sides see a NULL of the column's kind.
type foldArg struct{ typ, lit string }

func (a foldArg) folded() string {
	if a.lit == "NULL" {
		return "CAST(NULL AS " + a.typ + ")"
	}
	return a.lit
}

var (
	fInt = func(lit string) foldArg { return foldArg{"BIGINT", lit} }
	fDbl = func(lit string) foldArg { return foldArg{"DOUBLE", lit} }
	fStr = func(lit string) foldArg { return foldArg{"VARCHAR", lit} }
	fBit = func(lit string) foldArg { return foldArg{"BOOLEAN", lit} }
)

// foldCases substitute $1, $2, ... with the operands.
var foldCases = []struct {
	expr string
	args []foldArg
}{
	// Arithmetic, overflow wrapping and division/modulo by zero.
	{"$1 + $2", []foldArg{fInt("9223372036854775807"), fInt("1")}},
	{"$1 - $2", []foldArg{fInt("-9223372036854775807"), fInt("2")}},
	{"$1 * $2", []foldArg{fInt("4611686018427387904"), fInt("4")}},
	{"$1 * $2", []foldArg{fDbl("1.7976931348623157e308"), fDbl("10.0")}},
	{"$1 + $2", []foldArg{fInt("7"), fDbl("0.5")}},
	{"$1 / $2", []foldArg{fInt("7"), fInt("2")}},
	{"$1 / $2", []foldArg{fInt("7"), fInt("0")}},
	{"$1 % $2", []foldArg{fInt("7"), fInt("0")}},
	{"$1 % $2", []foldArg{fInt("-7"), fInt("3")}},
	{"$1 / $2", []foldArg{fDbl("7.0"), fDbl("0.0")}},
	{"$1 % $2", []foldArg{fDbl("7.5"), fDbl("0.0")}},
	{"$1 % $2", []foldArg{fDbl("7.5"), fDbl("2.0")}},
	{"$1 / $2", []foldArg{fInt("NULL"), fInt("0")}},
	{"-($1)", []foldArg{fInt("NULL")}},
	{"-($1)", []foldArg{fDbl("2.5")}},
	{"ABS($1)", []foldArg{fInt("-9")}},
	// Three-valued logic and CASE with a NULL condition.
	{"$1 AND $2", []foldArg{fBit("NULL"), fBit("FALSE")}},
	{"$1 AND $2", []foldArg{fBit("NULL"), fBit("TRUE")}},
	{"$1 OR $2", []foldArg{fBit("NULL"), fBit("TRUE")}},
	{"$1 OR $2", []foldArg{fBit("NULL"), fBit("FALSE")}},
	{"NOT $1", []foldArg{fBit("NULL")}},
	{"NOT $1", []foldArg{fBit("TRUE")}},
	{"$1 = $2", []foldArg{fInt("NULL"), fInt("1")}},
	{"$1 < $2", []foldArg{fStr("'abc'"), fStr("'abd'")}},
	{"$1 IS NULL", []foldArg{fStr("NULL")}},
	{"CASE WHEN $1 THEN 'a' ELSE 'b' END", []foldArg{fBit("NULL")}},
	{"CASE WHEN $1 > $2 THEN $1 ELSE 2.5 END", []foldArg{fInt("3"), fInt("1")}},
	{"CASE WHEN $1 > $2 THEN $1 END", []foldArg{fInt("NULL"), fInt("1")}},
	{"COALESCE($1, $2)", []foldArg{fInt("NULL"), fInt("5")}},
	{"NULLIF($1, $2)", []foldArg{fInt("3"), fInt("3")}},
	// Casts, including out-of-range and unparsable strings.
	{"CAST($1 AS INT)", []foldArg{fStr("'42'")}},
	{"CAST($1 AS INT)", []foldArg{fStr("'abc'")}},
	{"CAST($1 AS INT)", []foldArg{fDbl("1e30")}},
	{"CAST($1 AS INT)", []foldArg{fDbl("3.9")}},
	{"CAST($1 AS DOUBLE)", []foldArg{fInt("7")}},
	{"CAST($1 AS VARCHAR)", []foldArg{fDbl("2.5")}},
	{"CAST($1 AS BOOLEAN)", []foldArg{fStr("'true'")}},
	{"CAST($1 AS BOOLEAN)", []foldArg{fStr("'maybe'")}},
	// Strings: LIKE, SUBSTRING, LENGTH, concatenation.
	{"$1 LIKE $2", []foldArg{fStr("'héllo'"), fStr("'h_llo'")}},
	{"$1 LIKE $2", []foldArg{fStr("'hello'"), fStr("NULL")}},
	{"SUBSTRING($1 FROM $2 FOR $3)", []foldArg{fStr("'hello'"), fInt("-1"), fInt("3")}},
	{"SUBSTRING($1 FROM $2 FOR $3)", []foldArg{fStr("'héllo'"), fInt("2"), fInt("1")}},
	{"SUBSTRING($1 FROM $2 FOR $3)", []foldArg{fStr("'hello'"), fInt("NULL"), fInt("1")}},
	{"LENGTH($1)", []foldArg{fStr("'héllo'")}},
	{"UPPER($1) || $2", []foldArg{fStr("'abc'"), fStr("'x'")}},
	// POWER and the SQRT/LOG domain errors.
	{"POWER($1, $2)", []foldArg{fInt("2"), fInt("10")}},
	{"POWER($1, $2)", []foldArg{fDbl("-8.0"), fDbl("0.5")}},
	{"SQRT($1)", []foldArg{fDbl("-1.0")}},
	{"SQRT($1)", []foldArg{fInt("16")}},
	{"LOG($1)", []foldArg{fDbl("0.0")}},
	{"ROUND($1), SIGN($1)", []foldArg{fDbl("-2.5")}},
}

// foldOutcome renders a query's outcome: every value with its kind, or
// the error text.
func foldOutcome(db *DB, q string) string {
	res, err := db.Query(q)
	if err != nil {
		return "error: " + err.Error()
	}
	if res.NumRows() != 1 {
		return fmt.Sprintf("%d rows", res.NumRows())
	}
	var parts []string
	for c := 0; c < res.NumCols(); c++ {
		v := res.Value(0, c)
		parts = append(parts, fmt.Sprintf("%s:%v/%v", v, v.Kind(), res.Kinds[c]))
	}
	return strings.Join(parts, " | ")
}

// substitute fills $1, $2, ... in expr, highest ordinal first so $1
// never clobbers $10.
func substitute(expr string, n int, arg func(i int) string) string {
	for i := n; i >= 1; i-- {
		expr = strings.ReplaceAll(expr, fmt.Sprintf("$%d", i), arg(i-1))
	}
	return expr
}

// columnOutcome evaluates expr over a fresh one-row table holding args.
func columnOutcome(t *testing.T, db *DB, table, expr string, args []foldArg) string {
	t.Helper()
	var cols, vals []string
	for i, a := range args {
		cols = append(cols, fmt.Sprintf("c%d %s", i+1, a.typ))
		vals = append(vals, a.lit)
	}
	if _, err := db.Exec(fmt.Sprintf("CREATE TABLE %s (%s); INSERT INTO %s VALUES (%s)",
		table, strings.Join(cols, ", "), table, strings.Join(vals, ", "))); err != nil {
		t.Fatalf("%s: %v", table, err)
	}
	e := substitute(expr, len(args), func(i int) string { return fmt.Sprintf("c%d", i+1) })
	return foldOutcome(db, "SELECT "+e+" FROM "+table)
}

func TestFoldMatchesColumnEval(t *testing.T) {
	db := New()
	for i, c := range foldCases {
		folded := "SELECT " + substitute(c.expr, len(c.args), func(i int) string { return c.args[i].folded() })
		got := foldOutcome(db, folded)
		want := columnOutcome(t, db, fmt.Sprintf("t%d", i), c.expr, c.args)
		if got != want {
			t.Errorf("%s\n  folded: %s\n  column: %s", folded, got, want)
		}
	}
}

// TestConstContextsMatchColumnEval covers the scalar contexts that demand
// a constant — LIMIT, DEFAULT, a DIMENSION range and INSERT VALUES — with
// computed expressions, checked against the same expression over columns.
func TestConstContextsMatchColumnEval(t *testing.T) {
	db := New()
	col := func(table, expr string, args ...foldArg) string {
		t.Helper()
		out := columnOutcome(t, db, table, expr, args)
		v, _, ok := strings.Cut(out, ":")
		if !ok {
			t.Fatalf("%s: %s", expr, out)
		}
		return v
	}
	db.MustQuery(`CREATE TABLE seq (k INT)`)
	db.MustQuery(`INSERT INTO seq VALUES (1), (2), (3), (4), (5)`)

	// LIMIT 1 + 1 and OFFSET 5 - 2 * 2.
	want := col("l1", "$1 + $2", fInt("1"), fInt("1"))
	if got := db.MustQuery(`SELECT k FROM seq LIMIT 1 + 1`).NumRows(); fmt.Sprint(got) != want {
		t.Errorf("LIMIT 1 + 1 returned %d rows, column evaluation gives %s", got, want)
	}
	expectRows(t, db, `SELECT k FROM seq ORDER BY k LIMIT 1 OFFSET 5 - 2 * 2`, []string{"2"})

	// A folded DEFAULT.
	want = col("d1", "POWER($1, $2) / $3", fInt("2"), fInt("10"), fInt("3"))
	db.MustQuery(`CREATE TABLE d (k INT, v DOUBLE DEFAULT POWER(2, 10) / 3)`)
	db.MustQuery(`INSERT INTO d (k) VALUES (1)`)
	expectRows(t, db, `SELECT v FROM d`, []string{want})

	// An expression in a DIMENSION range: [0:1:2 * 3 + 1] has 7 cells.
	want = col("r1", "$1 * $2 + $3", fInt("2"), fInt("3"), fInt("1"))
	db.MustQuery(`CREATE ARRAY a (x INT DIMENSION[0:1:2 * 3 + 1], v INT DEFAULT 0)`)
	expectRows(t, db, `SELECT COUNT(*) FROM a`, []string{want})
	expectRows(t, db, `SELECT MAX(x) FROM a`, []string{"6"})

	// INSERT VALUES with computed expressions.
	want = col("i1", "SUBSTRING($1 FROM $2 FOR $3) || UPPER($4)",
		fStr("'héllo'"), fInt("2"), fInt("2"), fStr("'x'"))
	db.MustQuery(`CREATE TABLE iv (k INT, s VARCHAR)`)
	db.MustQuery(`INSERT INTO iv VALUES (7 % 4, SUBSTRING('héllo' FROM 2 FOR 2) || UPPER('x'))`)
	expectRows(t, db, `SELECT s FROM iv WHERE k = 3`, []string{want})

	// Errors in a constant context are the kernels' errors.
	for _, q := range []string{
		`SELECT k FROM seq LIMIT 1 / 0`,
		`CREATE TABLE bad (k INT DEFAULT 1 / 0)`,
		`CREATE ARRAY bad (x INT DIMENSION[0:1:4 / 0], v INT)`,
		`INSERT INTO seq VALUES (1 / 0)`,
	} {
		if _, err := db.Query(q); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("%s: got %v, want division by zero", q, err)
		}
	}
}
