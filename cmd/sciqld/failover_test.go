package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/server/client"
)

// startDaemon launches a built sciqld with the given flags and returns
// the running process plus the address it bound. Remaining stdout is
// drained so the child never blocks on a full pipe.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() })
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("no startup line from sciqld %v: %v", args, err)
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		t.Fatalf("unexpected startup line %q", line)
	}
	go func() { _, _ = io.Copy(io.Discard, br) }()
	return cmd, fields[3]
}

// TestFailoverSIGKILL is the end-to-end failover drill, two real sciqld
// processes deep: a primary takes an acked write workload, a replica
// process bootstraps and tails it while serving reads the whole time
// (its /healthz showing role, source and lag), the primary is SIGKILLed,
// writes racing the failover are refused, the replica is promoted over
// HTTP, and the promoted node answers the golden probe byte-identically
// to the dead primary — exactly the acked commits, nothing else. The
// promoted store then survives a restart.
func TestFailoverSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs two sciqld processes; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "sciqld")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	pdir := filepath.Join(t.TempDir(), "primary")
	rdir := filepath.Join(t.TempDir(), "replica")

	primary, paddr := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-db", pdir)
	pc := client.New(paddr)
	if _, err := pc.Exec(`CREATE TABLE kv (k INT, v STRING)`); err != nil {
		t.Fatalf("fixture: %v", err)
	}

	// Acked write workload: every insert below returned success to the
	// client, so every one must survive the failover.
	acked := 0
	ack := func(t *testing.T, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := pc.Exec(fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'v%d')`, acked+1, acked+1)); err != nil {
				t.Fatalf("acked write %d failed: %v", acked+1, err)
			}
			acked++
		}
	}
	ack(t, 25)

	replica, raddr := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-db", rdir, "-replica-of", paddr)
	rc := client.New(raddr)

	// A background reader hammers the replica through bootstrap,
	// catch-up, the primary's death and the promotion; it must never see
	// an error.
	stopReads := make(chan struct{})
	readsDone := make(chan struct{})
	var reads, readErrs atomic.Int64
	go func() {
		defer close(readsDone)
		c := client.New(raddr)
		for {
			select {
			case <-stopReads:
				return
			default:
			}
			if _, err := c.Query(`SELECT 1 + 1`); err != nil {
				readErrs.Add(1)
			}
			reads.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// More acked writes land while the replica is catching up.
	ack(t, 25)

	// Before any failover, the replica's healthz must already carry its
	// role and the replication stream: source, positions, lag.
	deadline := time.Now().Add(30 * time.Second)
	var h *client.Health
	for {
		var err error
		h, err = rc.Health()
		if err == nil && h.Mode == "replica" && h.Replication != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica healthz never reported replication (last: %+v, err %v)", h, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if h.Replication.Source != paddr {
		t.Fatalf("replication source = %q, want %q", h.Replication.Source, paddr)
	}

	// The acked set is final: capture the golden probe and log position
	// from the primary, then wait until the replica's healthz shows it
	// holds every acked byte (lag zero at the same position).
	const probe = `SELECT COUNT(*), SUM(k), MIN(k), MAX(k) FROM kv; SELECT COUNT(*) FROM kv WHERE k % 2 = 0`
	want, err := pc.Exec(probe)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := pc.Health()
	if err != nil {
		t.Fatal(err)
	}
	if ph.Mode != "primary" || ph.WAL.Offset == 0 {
		t.Fatalf("primary healthz mode=%q wal=%+v", ph.Mode, ph.WAL)
	}
	for {
		h, err = rc.Health()
		if err == nil && h.WAL == ph.WAL {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up to %+v (last: %+v, err %v)", ph.WAL, h, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if h.Replication.LagBytes != 0 || h.Replication.LagRecords != 0 {
		t.Fatalf("caught-up replica reports lag: %+v", h.Replication)
	}

	// Writes on the replica are refused while the primary lives...
	if _, err := rc.Exec(`INSERT INTO kv VALUES (999, 'no')`); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("replica write = %v, want read-only refusal", err)
	}

	// ...then the primary dies hard, mid-workload from the clients'
	// point of view: reads are in flight on the replica and the writes
	// below race the failover. None of them may be acked.
	if err := primary.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = primary.Wait()
	for i := 0; i < 3; i++ {
		if _, err := pc.Exec(`INSERT INTO kv VALUES (1000, 'lost')`); err == nil {
			t.Fatal("write acked by a SIGKILLed primary")
		}
	}

	// The replica keeps serving reads over the dead primary's data...
	if _, err := rc.Query(`SELECT COUNT(*) FROM kv`); err != nil {
		t.Fatalf("replica read after primary death: %v", err)
	}
	// ...and promotes over HTTP to exactly the primary's last position.
	pos, err := rc.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if pos.Gen != ph.WAL.Gen || pos.Offset != ph.WAL.Offset {
		t.Fatalf("promoted at %+v, primary died at %+v", pos, ph.WAL)
	}

	// Golden probe: the promoted node answers byte-identically to the
	// dead primary — the acked commits, all of them, nothing else.
	got, err := rc.Exec(probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Fatalf("promoted result %d diverges:\n%s\nwant:\n%s", i, got[i].String(), want[i].String())
		}
	}

	// The promoted node accepts writes and reports itself primary.
	if _, err := rc.Exec(fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'post-failover')`, acked+1)); err != nil {
		t.Fatalf("write after promote: %v", err)
	}
	acked++
	h, err = rc.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Mode != "primary" || h.Replication == nil || !h.Replication.Promoted {
		t.Fatalf("promoted healthz mode=%q repl=%+v", h.Mode, h.Replication)
	}

	// The read workload saw zero failures across the whole drill.
	close(stopReads)
	<-readsDone
	if readErrs.Load() > 0 {
		t.Fatalf("%d of %d replica reads failed during failover", readErrs.Load(), reads.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("the read workload never ran")
	}

	// Graceful shutdown, then the promoted store reopens as an ordinary
	// primary holding every acked commit.
	if err := replica.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- replica.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("promoted sciqld exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("promoted sciqld did not exit")
	}
	reopened, raddr2 := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-db", rdir)
	defer func() { _ = reopened.Process.Kill() }()
	r, err := client.New(raddr2).Query(fmt.Sprintf(`SELECT COUNT(*) FROM kv WHERE k <= %d`, acked))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.String(), fmt.Sprint(acked)) {
		t.Fatalf("reopened store lost commits: want count %d in\n%s", acked, r.String())
	}
}
