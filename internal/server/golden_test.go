package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/server/client"
	"repro/internal/testutil"
)

// TestGoldenOverServer replays the embedded engine's golden scripts
// (internal/core/testdata/queries) through a live sciqld over the HTTP
// client and asserts the rendered output is byte-identical to the same
// checked-in goldens: the network path must not change a single byte of
// a result.
func TestGoldenOverServer(t *testing.T) {
	dir := filepath.Join("..", "core", "testdata", "queries")
	paths, err := testutil.GoldenScripts(dir)
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden scripts under %s: %v", dir, err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".sql")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(strings.TrimSuffix(path, ".sql") + ".golden")
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}

			// Persistence scripts get a directory-backed engine; their
			// .reopen directive restarts the whole stack — daemon and
			// database — around the same directory, like a sciqld bounce.
			dbDir := ""
			var db *core.DB
			if testutil.NeedsDir(string(src)) {
				dbDir = filepath.Join(t.TempDir(), "db")
				if db, err = core.Open(dbDir); err != nil {
					t.Fatal(err)
				}
			} else {
				db = core.New()
			}
			srv := New(db, Config{Addr: "127.0.0.1:0"})
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if srv != nil {
					srv.Close()
				}
				if db != nil {
					db.Close()
				}
			}()
			c := client.New(srv.Addr().String())
			// A named session so transaction scripts behave like a
			// single embedded connection.
			if err := c.NewSession(); err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.CloseSession() }()

			got := testutil.RenderScript(string(src), func(stmt string) (string, error) {
				if stmt == testutil.ReopenStmt {
					if dbDir == "" {
						return "", fmt.Errorf(".reopen requires a directory-backed script")
					}
					_ = c.CloseSession()
					if srv != nil {
						if err := srv.Close(); err != nil {
							return "", err
						}
						srv = nil
					}
					if db != nil {
						if err := db.Close(); err != nil { // clean shutdown: final checkpoint
							db = nil
							return "", err
						}
					}
					if db, err = core.Open(dbDir); err != nil {
						return "", err
					}
					srv = New(db, Config{Addr: "127.0.0.1:0"})
					if err := srv.Start(); err != nil {
						return "", err
					}
					c = client.New(srv.Addr().String())
					if err := c.NewSession(); err != nil {
						return "", err
					}
					return "reopened", nil
				}
				if srv == nil {
					return "", fmt.Errorf("server unavailable after failed reopen")
				}
				results, err := c.Exec(stmt)
				var sb strings.Builder
				for _, r := range results {
					sb.WriteString(r.String())
				}
				return sb.String(), err
			})
			if got != string(want) {
				t.Errorf("server output differs from embedded golden %s:\n--- got ---\n%s\n--- want ---\n%s",
					name, got, want)
			}
		})
	}
}
