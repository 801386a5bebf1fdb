package repl

import (
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/client"
)

// startPrimary boots a directory-backed primary server on a loopback
// port and returns its database, address and a client.
func startPrimary(t *testing.T, ckptBytes int64) (*core.DB, string, *client.Client) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "primary")
	db, err := core.OpenWith(dir, ckptBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	addr := srv.Addr().String()
	return db, addr, client.New(addr)
}

// startTailer opens a tailer against addr in a fresh (or given) dir with
// fast test-friendly retry pacing, and starts it.
func startTailer(t *testing.T, addr, dir string) *Tailer {
	t.Helper()
	if dir == "" {
		dir = filepath.Join(t.TempDir(), "replica")
	}
	tl, err := Open(Options{
		Primary:  addr,
		Dir:      dir,
		Retry:    client.RetryPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond},
		PollWait: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tl.Stop(); _ = tl.DB().Close() })
	tl.Start()
	return tl
}

// waitCaughtUp polls until the tailer has applied everything the primary
// holds (positions equal at the same generation).
func waitCaughtUp(t *testing.T, tl *Tailer, primary *core.DB) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		want := primary.WALPosition()
		got := tl.DB().WALPosition()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			st := tl.ReplStatus()
			t.Fatalf("replica stuck at %+v, primary at %+v (status %+v)", got, want, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTailerEndToEnd drives the full replica lifecycle over real sockets:
// bootstrap against a primary that already has state, live tailing, a
// primary checkpoint mid-stream (generation reset forcing re-bootstrap),
// healthz lag reporting on the replica's own server, write refusal, and
// HTTP promotion that opens the write path.
func TestTailerEndToEnd(t *testing.T) {
	primaryDB, paddr, pc := startPrimary(t, 0)

	// State before the replica exists, behind a checkpoint: the replica
	// must bootstrap from a snapshot, not replay from generation zero.
	if _, err := pc.Exec(`CREATE TABLE kv (k INT, v STRING); INSERT INTO kv VALUES (1, 'one'), (2, 'two')`); err != nil {
		t.Fatal(err)
	}
	if err := primaryDB.Save(); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Exec(`INSERT INTO kv VALUES (3, 'three')`); err != nil {
		t.Fatal(err)
	}

	tl := startTailer(t, paddr, "")
	rsrv := server.New(tl.DB(), server.Config{Addr: "127.0.0.1:0"})
	rsrv.SetReplication(tl)
	if err := rsrv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rsrv.Close() })
	rc := client.New(rsrv.Addr().String())

	waitCaughtUp(t, tl, primaryDB)
	st := tl.ReplStatus()
	if st.Bootstraps == 0 {
		t.Fatal("replica joined a checkpointed primary without bootstrapping")
	}

	// Live tailing plus a second generation reset mid-stream.
	if _, err := pc.Exec(`INSERT INTO kv VALUES (4, 'four')`); err != nil {
		t.Fatal(err)
	}
	if err := primaryDB.Save(); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Exec(`INSERT INTO kv VALUES (5, 'five'); DELETE FROM kv WHERE k = 1`); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, tl, primaryDB)

	const probe = `SELECT k, v FROM kv; SELECT COUNT(*), SUM(k) FROM kv`
	want, err := pc.Exec(probe)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rc.Exec(probe)
	if err != nil {
		t.Fatalf("read on replica: %v", err)
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Fatalf("replica result %d diverges:\n%s\nwant:\n%s", i, got[i].String(), want[i].String())
		}
	}

	// The replica's healthz carries its role and the replication report.
	h, err := rc.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Mode != "replica" {
		t.Fatalf("replica healthz status=%q mode=%q, want ok/replica", h.Status, h.Mode)
	}
	if h.Replication == nil {
		t.Fatal("replica healthz lacks the replication section")
	}
	if h.Replication.Applied != h.WAL {
		t.Fatalf("replication.applied %+v != wal %+v", h.Replication.Applied, h.WAL)
	}
	if h.Replication.LagBytes != 0 {
		t.Fatalf("caught-up replica reports lag %d", h.Replication.LagBytes)
	}
	// The primary's healthz reports its role too.
	ph, err := pc.Health()
	if err != nil {
		t.Fatal(err)
	}
	if ph.Mode != "primary" || ph.WAL.Offset == 0 {
		t.Fatalf("primary healthz mode=%q wal=%+v", ph.Mode, ph.WAL)
	}

	// Writes are refused until promotion...
	if _, err := rc.Exec(`INSERT INTO kv VALUES (9, 'no')`); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("replica write = %v, want read-only refusal", err)
	}
	// ...and promotion over HTTP opens the write path.
	pos, err := rc.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if want := primaryDB.WALPosition(); pos.Gen != want.Gen || pos.Offset != want.Offset {
		t.Fatalf("promoted at %+v, primary at %+v", pos, want)
	}
	if _, err := rc.Exec(`INSERT INTO kv VALUES (6, 'six')`); err != nil {
		t.Fatalf("write after promote: %v", err)
	}
	h, err = rc.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Mode != "primary" || h.Replication == nil || !h.Replication.Promoted {
		t.Fatalf("promoted healthz mode=%q repl=%+v", h.Mode, h.Replication)
	}
	// Promoting twice is refused.
	if _, err := rc.Promote(); err == nil {
		t.Fatal("second promote must fail")
	}
}

// TestTailerResumesFromLocalLog: a replica that stops (crash stand-in)
// and reopens resumes tailing from its local log end — no re-bootstrap,
// the catch-up is WAL replay plus the stream tail.
func TestTailerResumesFromLocalLog(t *testing.T) {
	primaryDB, paddr, pc := startPrimary(t, 0)
	if _, err := pc.Exec(`CREATE TABLE t (a INT); INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "replica")

	tl, err := Open(Options{Primary: paddr, Dir: dir, PollWait: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tl.Start()
	waitCaughtUp(t, tl, primaryDB)
	tl.Stop()
	if err := tl.DB().Close(); err != nil {
		t.Fatal(err)
	}

	// Progress on the primary while the replica is down.
	if _, err := pc.Exec(`INSERT INTO t VALUES (2), (3)`); err != nil {
		t.Fatal(err)
	}

	tl2 := startTailer(t, paddr, dir)
	waitCaughtUp(t, tl2, primaryDB)
	if st := tl2.ReplStatus(); st.Bootstraps != 0 {
		t.Fatalf("resume re-bootstrapped (%d): the local log should carry the position", st.Bootstraps)
	}
	r, err := tl2.DB().Query(`SELECT COUNT(*), SUM(a) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.String(), "3") || !strings.Contains(r.String(), "6") {
		t.Fatalf("resumed replica content wrong:\n%s", r)
	}
}

// TestTailerReconnectsWithBackoff: the primary dies mid-stream; the
// tailer reports the failure in its status, retries with backoff, and
// catches up once a primary is back on the same address.
func TestTailerReconnectsWithBackoff(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "primary")
	db, err := core.OpenWith(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	pc := client.New(addr)
	if _, err := pc.Exec(`CREATE TABLE t (a INT); INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}

	tl := startTailer(t, addr, "")
	waitCaughtUp(t, tl, db)

	// Primary goes away (server only; the store survives).
	_ = srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := tl.ReplStatus()
		if st.Reconnects > 0 && st.LastError != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tailer never noticed the dead primary: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Primary returns on the same address with more committed state.
	if _, err := db.Exec(`INSERT INTO t VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	var srv2 *server.Server
	for time.Now().Before(deadline) {
		srv2 = server.New(db, server.Config{Addr: addr})
		if err := srv2.Start(); err == nil {
			break
		}
		srv2 = nil
		time.Sleep(50 * time.Millisecond)
	}
	if srv2 == nil {
		t.Skip("could not rebind the primary port; environment reuses ports too slowly")
	}
	defer srv2.Close()
	defer db.Close()

	waitCaughtUp(t, tl, db)
	r, err := tl.DB().Query(`SELECT SUM(a) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.String(), "3") {
		t.Fatalf("replica missed post-reconnect writes:\n%s", r)
	}
}

// TestTailerDiscardsCorruptStreamTail serves the replica a chunk whose
// tail bytes were corrupted in transit (via a fake primary wrapping a
// real one) and requires the tailer to apply the intact prefix, discard
// the rest, re-request, and converge — the streaming twin of crash
// recovery's torn-tail truncation.
func TestTailerDiscardsCorruptStreamTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "primary")
	db, err := core.OpenWith(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (a INT)`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := db.Exec(`INSERT INTO t VALUES (` + strconv.Itoa(i) + `)`); err != nil {
			t.Fatal(err)
		}
	}

	// Fake primary: real chunk data, but the first response has its last
	// three bytes flipped — a mid-frame corruption the CRC must catch.
	var corrupted atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/repl/wal", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		gen, _ := strconv.ParseUint(q.Get("gen"), 10, 64)
		off, _ := strconv.ParseInt(q.Get("off"), 10, 64)
		data, pos, err := db.ReadWALChunk(gen, off, 1<<20)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if len(data) == 0 {
			time.Sleep(20 * time.Millisecond) // crude long-poll stand-in
		}
		if corrupted.CompareAndSwap(0, 1) && len(data) > 3 {
			for i := len(data) - 3; i < len(data); i++ {
				data[i] ^= 0xff
			}
		}
		w.Header().Set("X-Sciql-Wal-Gen", strconv.FormatUint(pos.Gen, 10))
		w.Header().Set("X-Sciql-Wal-Offset", strconv.FormatInt(pos.Offset, 10))
		w.Header().Set("X-Sciql-Wal-Records", strconv.FormatInt(pos.Records, 10))
		_, _ = w.Write(data)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: mux}
	go hs.Serve(ln)
	defer hs.Shutdown(context.Background())

	replicaDir := filepath.Join(t.TempDir(), "replica")
	tl := startTailer(t, ln.Addr().String(), replicaDir)
	waitCaughtUp(t, tl, db)
	if corrupted.Load() != 1 {
		t.Fatal("the corrupting response was never served")
	}
	r, err := tl.DB().Query(`SELECT COUNT(*), SUM(a) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.String(), "4") || !strings.Contains(r.String(), "10") {
		t.Fatalf("replica content wrong after corrupt tail:\n%s", r)
	}
	// The replica's own log must stay byte-identical to the primary's:
	// nothing corrupt was ever appended.
	pb, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(filepath.Join(replicaDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if string(pb) != string(rb) {
		t.Fatalf("replica log (%d bytes) diverged from primary log (%d bytes)", len(rb), len(pb))
	}
}

// TestLagReporting pins the lag arithmetic end to end: a fake primary
// serves its real log but reports its offset 1000 bytes (and 7 records)
// ahead, so once the tailer drains the real bytes its status — and the
// replica server's /healthz — must show exactly that much lag.
func TestLagReporting(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "primary")
	db, err := core.OpenWith(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (a INT); INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/repl/wal", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		gen, _ := strconv.ParseUint(q.Get("gen"), 10, 64)
		off, _ := strconv.ParseInt(q.Get("off"), 10, 64)
		data, pos, err := db.ReadWALChunk(gen, off, 1<<20)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if len(data) == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		w.Header().Set("X-Sciql-Wal-Gen", strconv.FormatUint(pos.Gen, 10))
		w.Header().Set("X-Sciql-Wal-Offset", strconv.FormatInt(pos.Offset+1000, 10))
		w.Header().Set("X-Sciql-Wal-Records", strconv.FormatInt(pos.Records+7, 10))
		_, _ = w.Write(data)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: mux}
	go hs.Serve(ln)
	defer hs.Shutdown(context.Background())

	tl := startTailer(t, ln.Addr().String(), "")
	rsrv := server.New(tl.DB(), server.Config{Addr: "127.0.0.1:0"})
	rsrv.SetReplication(tl)
	if err := rsrv.Start(); err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	rc := client.New(rsrv.Addr().String())

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := tl.ReplStatus()
		if st.LagBytes == 1000 && st.LagRecords == 7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lag never settled at 1000 bytes / 7 records: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	h, err := rc.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Replication == nil || h.Replication.LagBytes != 1000 || h.Replication.LagRecords != 7 {
		t.Fatalf("healthz lag = %+v, want 1000 bytes / 7 records", h.Replication)
	}
}

// TestOpenWipesInterruptedBootstrap: a directory holding a half-installed
// snapshot is wiped and re-bootstrapped instead of being trusted.
func TestOpenWipesInterruptedBootstrap(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "replica")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "repl-bootstrap.partial"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	tl, err := Open(Options{Primary: "127.0.0.1:1", Dir: dir})
	if err != nil {
		t.Fatalf("open over interrupted bootstrap: %v", err)
	}
	defer tl.DB().Close()
	if _, err := os.Stat(filepath.Join(dir, "repl-bootstrap.partial")); !os.IsNotExist(err) {
		t.Fatal("marker survived the wipe")
	}
	if !tl.DB().IsReplica() {
		t.Fatal("reopened database is not a replica")
	}
}

// TestTailerSurvivesCheckpointsUnderLoad: a primary whose background
// checkpoints fire continuously while writers commit resets its WAL
// generation out from under the replica's long-poll; every reset must
// surface as a clean re-bootstrap (the 409 path), never divergence or a
// stall. This is the group-commit-era version of the mid-stream Save in
// TestTailerEndToEnd: the resets now come from the commit loop, racing
// the stream instead of pausing it.
func TestTailerSurvivesCheckpointsUnderLoad(t *testing.T) {
	// 512 bytes of WAL per checkpoint: a handful of inserts per reset.
	primaryDB, paddr, pc := startPrimary(t, 512)
	if _, err := pc.Exec(`CREATE TABLE kv (k INT, v INT)`); err != nil {
		t.Fatal(err)
	}
	if err := primaryDB.Save(); err != nil {
		t.Fatal(err)
	}

	tl := startTailer(t, paddr, "")
	waitCaughtUp(t, tl, primaryDB)
	base := tl.ReplStatus().Bootstraps

	const writers, rows = 4, 60
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			wc := client.New(paddr)
			for j := 0; j < rows; j++ {
				if _, err := wc.Exec("INSERT INTO kv VALUES (" +
					strconv.Itoa(w*1000+j) + ", " + strconv.Itoa(j) + ")"); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errc; err != nil {
			t.Fatalf("writer: %v", err)
		}
	}

	waitCaughtUp(t, tl, primaryDB)
	st := tl.ReplStatus()
	if st.Bootstraps <= base {
		t.Fatalf("bootstraps stayed at %d under checkpointing load; the generation resets never hit the stream", base)
	}
	if st.LagBytes != 0 {
		t.Fatalf("caught-up replica reports lag %d", st.LagBytes)
	}
	const probe = `SELECT COUNT(*), SUM(k), SUM(v) FROM kv`
	want, err := primaryDB.Exec(probe)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tl.DB().Exec(probe)
	if err != nil {
		t.Fatalf("read on replica: %v", err)
	}
	for c := 0; c < 3; c++ {
		if g, w := got[0].Cols[c].Ints()[0], want[0].Cols[c].Ints()[0]; g != w {
			t.Fatalf("replica diverged after %d re-bootstraps: probe col %d = %d, want %d",
				st.Bootstraps-base, c, g, w)
		}
	}
}
