package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server/client"
)

// startServer boots a server on a loopback port over a fresh database.
func startServer(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	db := core.New()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv := New(db, cfg)
	if err := srv.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, client.New(srv.Addr().String())
}

func TestHTTPQueryRoundTrip(t *testing.T) {
	_, c := startServer(t, Config{})
	if _, err := c.Exec(`CREATE TABLE t (a INT, b STRING); INSERT INTO t VALUES (1, 'x'), (2, 'y')`); err != nil {
		t.Fatal(err)
	}
	r, err := c.Query(`SELECT a, b FROM t WHERE a > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(r.Rows))
	}
	if v, ok := r.Rows[0][0].(float64); !ok || v != 2 {
		t.Fatalf("row[0][0] = %v, want 2", r.Rows[0][0])
	}
	if r.Rows[0][1] != "y" {
		t.Fatalf("row[0][1] = %v, want y", r.Rows[0][1])
	}
	if !strings.Contains(r.String(), "a | b") {
		t.Fatalf("rendered missing header: %q", r.String())
	}

	// Statement errors come back as engine errors, not transport failures.
	if _, err := c.Query(`SELECT nope FROM t`); err == nil ||
		!strings.Contains(err.Error(), "no such column") {
		t.Fatalf("expected engine error, got %v", err)
	}

	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Queries == 0 {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestHTTPSessionTransactions(t *testing.T) {
	srv, c := startServer(t, Config{})
	if _, err := c.Exec(`CREATE TABLE t (a INT); INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	if err := c.NewSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`BEGIN; UPDATE t SET a = 99`); err != nil {
		t.Fatal(err)
	}
	// Another (ephemeral) client does not see the uncommitted write.
	other := client.New(srv.Addr().String())
	r, err := other.Query(`SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Rows[0][0].(float64); v != 1 {
		t.Fatalf("uncommitted write visible to other client: %v", v)
	}
	if _, err := c.Exec(`COMMIT`); err != nil {
		t.Fatal(err)
	}
	r, err = other.Query(`SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Rows[0][0].(float64); v != 99 {
		t.Fatalf("committed write not visible: %v", v)
	}
	if err := c.CloseSession(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionAbandonedTransactionRollsBack(t *testing.T) {
	srv, c := startServer(t, Config{})
	if _, err := c.Exec(`CREATE TABLE t (a INT); INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	if err := c.NewSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`BEGIN; UPDATE t SET a = 5`); err != nil {
		t.Fatal(err)
	}
	// Dropping the session server-side rolls the transaction back.
	if err := c.CloseSession(); err != nil {
		t.Fatal(err)
	}
	other := client.New(srv.Addr().String())
	r, err := other.Query(`SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Rows[0][0].(float64); v != 1 {
		t.Fatalf("abandoned transaction leaked: a = %v", v)
	}
}

func TestTextProtocol(t *testing.T) {
	srv, c := startServer(t, Config{})
	if _, err := c.Exec(`CREATE TABLE t (a INT); INSERT INTO t VALUES (7)`); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	readBlock := func() []string {
		t.Helper()
		var got []string
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("read: %v (got %q)", err, got)
			}
			if line == ".\n" {
				return got
			}
			got = append(got, strings.TrimRight(line, "\n"))
		}
	}

	fmt.Fprintf(conn, "SELECT a + 1 FROM t\n")
	got := readBlock()
	if len(got) < 2 || !strings.Contains(got[len(got)-1], "8") {
		t.Fatalf("text result = %q", got)
	}

	// Errors are in-band.
	fmt.Fprintf(conn, "SELECT nope FROM t\n")
	var sawErr bool
	for _, line := range readBlock() {
		if strings.HasPrefix(line, "!error:") {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("expected !error line")
	}

	// Transactions are per-connection: an abandoned BEGIN rolls back on
	// disconnect.
	fmt.Fprintf(conn, "BEGIN; UPDATE t SET a = 100\n")
	readBlock()
	_ = conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := c.Query(`SELECT a FROM t`)
		if err == nil && len(r.Rows) == 1 && r.Rows[0][0].(float64) == 7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("transaction from closed text connection not rolled back")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, c := startServer(t, Config{})
	if _, err := c.Exec(`CREATE TABLE n (v INT)`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cc := client.New(srv.Addr().String())
			for i := 0; i < 20; i++ {
				if _, err := cc.Exec(fmt.Sprintf(`INSERT INTO n VALUES (%d)`, g*100+i)); err != nil {
					errs <- err
					return
				}
				if _, err := cc.Query(`SELECT COUNT(*) FROM n`); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	r, err := c.Query(`SELECT COUNT(*) FROM n`)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Rows[0][0].(float64); v != 160 {
		t.Fatalf("count = %v, want 160", v)
	}
}

func TestMaxSessions(t *testing.T) {
	srv, c := startServer(t, Config{MaxSessions: 2})
	if err := c.NewSession(); err != nil {
		t.Fatal(err)
	}
	d := client.New(srv.Addr().String())
	if err := d.NewSession(); err != nil {
		t.Fatal(err)
	}
	e := client.New(srv.Addr().String())
	if err := e.NewSession(); err == nil || !strings.Contains(err.Error(), "too many sessions") {
		t.Fatalf("expected session cap, got %v", err)
	}
	// Freeing one admits the next.
	if err := d.CloseSession(); err != nil {
		t.Fatal(err)
	}
	if err := e.NewSession(); err != nil {
		t.Fatalf("session slot not released: %v", err)
	}
}

func TestOverloadSheds(t *testing.T) {
	srv, c := startServer(t, Config{Workers: 1, MaxQueue: 1})
	if _, err := c.Exec(`CREATE TABLE t (a INT)`); err != nil {
		t.Fatal(err)
	}
	// Saturate the single worker and the single queue slot.
	rel1, err := srv.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan struct{})
	go func() {
		rel2, err := srv.admit(context.Background())
		if err == nil {
			rel2()
		}
		close(queued)
	}()
	time.Sleep(20 * time.Millisecond) // let the queued admit park
	if _, err := c.Query(`SELECT 1`); err == nil || !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("expected overload shed, got %v", err)
	}
	rel1()
	<-queued
}

// TestTextProtocolDeleteStatement pins the protocol sniff: DELETE is both
// an HTTP method and a SQL keyword, and "DELETE FROM t" must reach the
// engine, not the HTTP server.
func TestTextProtocolDeleteStatement(t *testing.T) {
	srv, c := startServer(t, Config{})
	if _, err := c.Exec(`CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2)`); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "DELETE FROM t WHERE a = 1\n")
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !strings.Contains(line, "1 rows deleted") {
		t.Fatalf("DELETE over text protocol got %q (misrouted to HTTP?)", line)
	}
}

// TestCloseWithIdleTextClient pins graceful shutdown: an idle text
// connection must not block Server.Close.
func TestCloseWithIdleTextClient(t *testing.T) {
	db := core.New()
	srv := New(db, Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Mark the connection as text-protocol, then go idle mid-session.
	fmt.Fprintf(conn, "SELECT 1\n")
	br := bufio.NewReader(conn)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if line == ".\n" {
			break
		}
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close blocked on an idle text connection")
	}
}

// TestOversizedArrayOverServer sends CREATE ARRAY shapes past the cell
// limit over the wire: each must come back as an engine error and the
// server must keep answering.
func TestOversizedArrayOverServer(t *testing.T) {
	_, c := startServer(t, Config{})
	for _, q := range []string{
		`CREATE ARRAY big2 (x INT DIMENSION[0:1:4294967296], y INT DIMENSION[0:1:4294967296], v INT DEFAULT 0)`,
		`CREATE ARRAY big1 (x INT DIMENSION[0:1:9223372036854775807], v INT DEFAULT 0)`,
	} {
		_, err := c.Query(q)
		if err == nil || strings.Contains(err.Error(), "internal error") ||
			!strings.Contains(err.Error(), "cells") {
			t.Errorf("%s: got %v, want a clean cell-limit error", q, err)
		}
	}
	r, err := c.Query(`SELECT 40 + 2`)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Rows[0][0].(float64); !ok || v != 42 {
		t.Fatalf("SELECT 40 + 2 = %v after the rejected DDL", r.Rows[0][0])
	}
}
