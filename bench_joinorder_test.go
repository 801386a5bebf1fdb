// Multi-way join-ordering benchmarks: syntactic (no reordering) vs greedy
// over the three canonical multi-join shapes — star, chain, snowflake.
// Each sub-benchmark reports both the planning cost (plan_ns/op: bind +
// optimize + MAL compile) and the end-to-end run time (run_ns/op), so the
// plan-time-vs-run-time trade-off is a recorded number, not an anecdote.
// bench.sh records them into BENCH_joinorder.json.
package sciql_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mal"
	"repro/internal/rel"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
)

const (
	joinOrderFactRows = 1 << 20 // star fact table
	joinOrderDimRows  = 1000    // star dimensions
	joinOrderMidRows  = 200_000 // chain/snowflake heads
)

// joinOrderInsert loads deterministic rows through batched INSERTs (the
// engine has no bulk loader for tables; batching keeps parse cost sane).
func joinOrderInsert(b *testing.B, db *core.DB, table string, n int, row func(i int) string) {
	b.Helper()
	const batch = 8192
	var sb strings.Builder
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		sb.Reset()
		sb.WriteString("INSERT INTO ")
		sb.WriteString(table)
		sb.WriteString(" VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			sb.WriteString(row(i))
		}
		if _, err := db.Exec(sb.String()); err != nil {
			b.Fatalf("load %s: %v", table, err)
		}
	}
}

// buildJoinOrderBenchDB creates the three workload shapes in one database.
//
// Star: a 1M-row fact named first in the FROM list, one duplicate-keyed
// dimension (4 fact-side matches per key) and one highly selective
// dimension (1% of keys survive its filter). Left-to-right syntactic order
// materialises the ~4M-row fact x dim_a intermediate; a stats-driven order
// starts from the 10 surviving dim_b rows.
//
// Chain: c1(200K) -> c2(10K) -> c3(1K) -> c4(100, filtered to 5): the
// selective end is syntactically last.
//
// Snowflake: fact sf(200K) -> dimension sa(1K) -> sub-dimension ssub(100,
// filtered to 10), plus an unfiltered dimension sb(1K).
func buildJoinOrderBenchDB(b *testing.B) *core.DB {
	b.Helper()
	db := core.New()
	ddl := []string{
		`CREATE TABLE fact (id INT, a_id INT, b_id INT, v INT)`,
		`CREATE TABLE dim_a (id INT, attr INT)`,
		`CREATE TABLE dim_b (id INT, attr INT)`,
		`CREATE TABLE c1 (k1 INT, v INT)`,
		`CREATE TABLE c2 (id INT, k2 INT)`,
		`CREATE TABLE c3 (id INT, k3 INT)`,
		`CREATE TABLE c4 (id INT, attr INT)`,
		`CREATE TABLE sf (a_id INT, b_id INT, v INT)`,
		`CREATE TABLE sa (id INT, sub_id INT)`,
		`CREATE TABLE ssub (id INT, attr INT)`,
		`CREATE TABLE sb (id INT, attr INT)`,
	}
	for _, q := range ddl {
		if _, err := db.Exec(q); err != nil {
			b.Fatalf("%s: %v", q, err)
		}
	}
	joinOrderInsert(b, db, "fact", joinOrderFactRows, func(i int) string {
		return fmt.Sprintf("(%d,%d,%d,%d)", i, i%250, i%joinOrderDimRows, i%1000)
	})
	joinOrderInsert(b, db, "dim_a", joinOrderDimRows, func(i int) string {
		return fmt.Sprintf("(%d,%d)", i%250, i%10) // 4 duplicates per key
	})
	joinOrderInsert(b, db, "dim_b", joinOrderDimRows, func(i int) string {
		return fmt.Sprintf("(%d,%d)", i, i) // attr < 10 keeps 10 rows
	})
	joinOrderInsert(b, db, "c1", joinOrderMidRows, func(i int) string {
		return fmt.Sprintf("(%d,%d)", i%10_000, i%97)
	})
	joinOrderInsert(b, db, "c2", 10_000, func(i int) string {
		return fmt.Sprintf("(%d,%d)", i, i%1000)
	})
	joinOrderInsert(b, db, "c3", 1000, func(i int) string {
		return fmt.Sprintf("(%d,%d)", i, i%100)
	})
	joinOrderInsert(b, db, "c4", 100, func(i int) string {
		return fmt.Sprintf("(%d,%d)", i, i) // attr < 5 keeps 5 rows
	})
	joinOrderInsert(b, db, "sf", joinOrderMidRows, func(i int) string {
		return fmt.Sprintf("(%d,%d,%d)", i%joinOrderDimRows, i%joinOrderDimRows, i%777)
	})
	joinOrderInsert(b, db, "sa", joinOrderDimRows, func(i int) string {
		return fmt.Sprintf("(%d,%d)", i, i%100)
	})
	joinOrderInsert(b, db, "ssub", 100, func(i int) string {
		return fmt.Sprintf("(%d,%d)", i, i) // attr < 10 keeps 10 rows
	})
	joinOrderInsert(b, db, "sb", joinOrderDimRows, func(i int) string {
		return fmt.Sprintf("(%d,%d)", i, i%13)
	})
	return db
}

var joinOrderBenchQueries = []struct{ name, sql string }{
	{"star", `SELECT SUM(f.v) FROM fact f, dim_a a, dim_b b
		WHERE f.a_id = a.id AND f.b_id = b.id AND a.attr >= 0 AND b.attr < 10`},
	{"chain", `SELECT COUNT(*) FROM c1, c2, c3, c4
		WHERE c1.k1 = c2.id AND c2.k2 = c3.id AND c3.k3 = c4.id AND c4.attr < 5`},
	{"snowflake", `SELECT SUM(sf.v) FROM sf, sa, ssub, sb
		WHERE sf.a_id = sa.id AND sa.sub_id = ssub.id AND sf.b_id = sb.id AND ssub.attr < 10`},
}

// joinOrderPlan runs the full planning pipeline (bind, optimize — which
// includes the ordering pass under measurement — and MAL compile) on an
// already-parsed statement, exactly what the engine does per query behind
// the parse cache.
func joinOrderPlan(db *core.DB, sel *ast.Select) error {
	plan, err := rel.NewBinder(db.Snapshot()).BindSelect(sel)
	if err != nil {
		return err
	}
	_, err = mal.Compile(rel.Optimize(plan))
	return err
}

// BenchmarkJoinOrder runs every shape under both ordering modes. Each
// sub-benchmark's ns/op is the end-to-end query; plan_ns/op and run_ns/op
// make the two costs separately comparable across modes. On >= 4 cores it
// gates the star shape: greedy >= 5x faster than syntactic end-to-end.
func BenchmarkJoinOrder(b *testing.B) {
	db := buildJoinOrderBenchDB(b)
	type timing struct{ plan, run float64 }
	star := map[rel.JoinOrderMode]timing{}
	for _, q := range joinOrderBenchQueries {
		stmt, err := parser.ParseOne(q.sql)
		if err != nil {
			b.Fatalf("%s: %v", q.name, err)
		}
		sel := stmt.(*ast.Select)
		// Same-mode reference results: the modes must agree before their
		// timings are worth comparing.
		var ref string
		for _, mode := range []rel.JoinOrderMode{rel.JoinOrderSyntactic, rel.JoinOrderGreedy} {
			mode := mode
			b.Run(q.name+"/"+mode.String(), func(b *testing.B) {
				prev := rel.SetJoinOrdering(mode)
				defer rel.SetJoinOrdering(prev)
				got := db.MustQuery(q.sql).String()
				if ref == "" {
					ref = got
				} else if got != ref {
					b.Fatalf("mode %v disagrees with syntactic:\n%s\n---\n%s", mode, got, ref)
				}
				// Planning cost, measured apart from execution.
				const planIters = 100
				start := time.Now()
				for i := 0; i < planIters; i++ {
					if err := joinOrderPlan(db, sel); err != nil {
						b.Fatal(err)
					}
				}
				planNs := float64(time.Since(start).Nanoseconds()) / planIters
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := db.Query(q.sql); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(planNs, "plan_ns/op")
				b.ReportMetric(runNs, "run_ns/op")
				if q.name == "star" {
					star[mode] = timing{plan: planNs, run: runNs}
				}
			})
		}
	}

	syn, greedy := star[rel.JoinOrderSyntactic], star[rel.JoinOrderGreedy]
	b.Logf("star run-time: syntactic/greedy %.1fx; plan-time greedy/syntactic %.1fx",
		syn.run/greedy.run, greedy.plan/syn.plan)
	if runtime.GOMAXPROCS(0) < 4 {
		b.Log("under 4 cores: join-order ratio gates self-disabled (timings still recorded)")
		return
	}
	if ratio := syn.run / greedy.run; ratio < 5 {
		b.Errorf("greedy only %.1fx faster than syntactic on star, want >= 5x", ratio)
	}
}
