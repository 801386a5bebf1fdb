// Package client is a small Go client for the sciqld HTTP/JSON protocol.
// It is used by the end-to-end test suites and the examples; external
// programs can speak the same three endpoints with any HTTP library.
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"
)

// Result is one statement result as received from the server. String
// renders it exactly as the embedded engine renders its result.
type Result struct {
	// Names and Kinds describe the columns; a kind is "lng", "oid",
	// "dbl", "bit", "str" or "void" (a column of NULLs).
	Names []string `json:"names,omitempty"`
	Kinds []string `json:"kinds,omitempty"`
	// Dims marks the dimension columns of an array result; it is nil
	// when there are none.
	Dims []bool `json:"dims,omitempty"`
	// Rows holds the cells row by row: nil for NULL, bool, string or
	// float64, as encoding/json would decode them, with two exceptions.
	// An INT/OID cell that no float64 holds exactly (beyond ±2^53, such
	// as math.MaxInt64) is an int64, so integers always arrive exact. A
	// non-finite FLOAT cell, which the server sends as the string "+Inf",
	// "-Inf" or "NaN", is that float64.
	Rows     [][]any `json:"rows,omitempty"`
	Affected int     `json:"affected,omitempty"`
	Text     string  `json:"text,omitempty"`
}

// Health is the healthz report. Status is "ok", "degraded" (engine is
// read-only after a durability failure; Cause carries the latched
// error) or "draining" (graceful shutdown in progress); the server
// answers non-ok states with HTTP 503.
type Health struct {
	Status   string `json:"status"`
	Cause    string `json:"cause,omitempty"`
	Sessions int    `json:"sessions"`
	Queries  int64  `json:"queries"`
	Rejected int64  `json:"rejected"`
	Workers  int    `json:"workers"`
	// Mode is the node's role: "primary", "replica" or "read-only" (the
	// -read-only flag). ReadOnly carries the policy reason when writes
	// are refused. Both are orthogonal to Status: a replica is healthy.
	Mode     string `json:"mode,omitempty"`
	ReadOnly string `json:"read_only,omitempty"`
	// WAL is the node's log position; on a replica, Replication carries
	// the tailer's lag against its primary.
	WAL         WALPos    `json:"wal"`
	Replication *ReplInfo `json:"replication,omitempty"`
}

// RetryPolicy bounds the client's automatic retries. A retry is
// attempted only for failures where the statement provably did not
// complete or is safe to repeat: connection errors (dial/reset) and
// HTTP 503 (overloaded, draining) — and only for read-only batches
// (every statement SELECT/EXPLAIN/PLAN) on an ephemeral session, since
// re-running a write or a transactional statement could double-apply
// it. Delays grow exponentially from BaseDelay, capped at MaxDelay,
// with ±50% jitter so a herd of restarting clients spreads out.
type RetryPolicy struct {
	MaxAttempts int           // total tries including the first; <= 1 disables retry
	BaseDelay   time.Duration // first backoff step (default 25ms)
	MaxDelay    time.Duration // backoff cap (default 1s)
}

// DefaultRetryPolicy suits riding out a graceful restart: 5 tries
// spanning roughly half a second plus jitter.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 5, BaseDelay: 25 * time.Millisecond, MaxDelay: time.Second}

// Client talks to one sciqld server. The zero session value runs every
// batch on an ephemeral autocommit session; NewSession switches to a
// named server-side session (transactions, prepared statements). A Client
// is safe for concurrent use; concurrent queries on a *named* session
// serialise server-side.
type Client struct {
	base    string
	hc      *http.Client
	session string
	retry   RetryPolicy
}

// New returns a client for the server at addr ("host:port"). Retries
// are off by default; see SetRetry.
func New(addr string) *Client {
	return &Client{
		base: "http://" + addr,
		hc:   &http.Client{Timeout: 60 * time.Second},
	}
}

// SetRetry installs the retry policy (see RetryPolicy for what is and
// is not retried). Pass DefaultRetryPolicy to ride out graceful
// restarts, or a zero RetryPolicy to disable retries again.
func (c *Client) SetRetry(p RetryPolicy) { c.retry = p }

type queryRequest struct {
	Query   string `json:"query"`
	Session string `json:"session,omitempty"`
}

// maxResponse bounds the /query body the client accepts.
var maxResponse int64 = 64 << 20

// Exec runs a semicolon-separated batch, returning one result per
// completed statement. A statement error is returned alongside the
// results that preceded it. Under a RetryPolicy, connection errors and
// HTTP 503 on read-only ephemeral batches are retried with backoff.
func (c *Client) Exec(query string) ([]Result, error) {
	retryable := c.retry.MaxAttempts > 1 && c.session == "" && readOnlyBatch(query)
	var (
		rs     []Result
		status int
		err    error
	)
	for attempt := 0; ; attempt++ {
		rs, status, err = c.exec1(query)
		if err == nil || !retryable || attempt+1 >= c.retry.MaxAttempts || !retriableFailure(status, err) {
			return rs, err
		}
		time.Sleep(c.backoff(attempt))
	}
}

// exec1 performs one POST /query round trip. status is 0 when the
// request never produced an HTTP response (connection error).
func (c *Client) exec1(query string) ([]Result, int, error) {
	body, err := json.Marshal(queryRequest{Query: query, Session: c.session})
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Post(c.base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return nil, resp.StatusCode, fmt.Errorf("bad server response (HTTP %d): %v", resp.StatusCode, err)
	}
	results, msg, err := decodeResponse(data)
	if err != nil {
		return nil, resp.StatusCode, fmt.Errorf("bad server response (HTTP %d): %v", resp.StatusCode, err)
	}
	if msg != "" {
		return results, resp.StatusCode, fmt.Errorf("%s", msg)
	}
	if resp.StatusCode != http.StatusOK {
		return results, resp.StatusCode, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return results, resp.StatusCode, nil
}

// readBody reads a response body of at most maxResponse bytes into a
// buffer sized from Content-Length when the server sent one. A longer
// body is an error, never a truncated answer.
func readBody(resp *http.Response) ([]byte, error) {
	tooLarge := func() error { return fmt.Errorf("response exceeds the client's limit of %d bytes", maxResponse) }
	if resp.ContentLength > maxResponse {
		return nil, tooLarge()
	}
	if resp.ContentLength >= 0 {
		data := make([]byte, resp.ContentLength)
		_, err := io.ReadFull(resp.Body, data)
		return data, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponse+1))
	if int64(len(data)) > maxResponse {
		return nil, tooLarge()
	}
	return data, err
}

// retriableFailure reports whether a failed attempt is safe and useful
// to repeat: the connection never produced a response (status 0) or the
// server shed it before execution (503: overloaded or shutting down).
func retriableFailure(status int, err error) bool {
	return err != nil && (status == 0 || status == http.StatusServiceUnavailable)
}

// readOnlyBatch reports whether every statement of the batch is a read
// (SELECT/EXPLAIN/PLAN), and so safe to re-run.
func readOnlyBatch(query string) bool {
	for _, stmt := range strings.Split(query, ";") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		kw := strings.ToUpper(stmt)
		if i := strings.IndexAny(kw, " \t\r\n("); i > 0 {
			kw = kw[:i]
		}
		switch kw {
		case "SELECT", "EXPLAIN", "PLAN":
		default:
			return false
		}
	}
	return true
}

// backoff returns the sleep before retry number attempt+2.
func (c *Client) backoff(attempt int) time.Duration { return c.retry.Backoff(attempt) }

// Backoff returns the sleep before retry number attempt+2: exponential
// from BaseDelay, capped at MaxDelay, with ±50% jitter. Exported so
// other reconnecting loops (the replication tailer) share the same
// herd-spreading schedule.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = time.Second
	}
	d := base << attempt
	if d > max || d <= 0 || attempt >= 30 {
		d = max
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// Query runs exactly one statement and returns its result.
func (c *Client) Query(query string) (*Result, error) {
	rs, err := c.Exec(query)
	if err != nil {
		return nil, err
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("no result")
	}
	return &rs[0], nil
}

// NewSession creates a named server-side session and pins the client to
// it. Further batches share transaction state until CloseSession.
func (c *Client) NewSession() error {
	resp, err := c.hc.Post(c.base+"/session", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out struct {
		Session string `json:"session"`
		Error   string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	if out.Error != "" {
		return fmt.Errorf("%s", out.Error)
	}
	c.session = out.Session
	return nil
}

// Session returns the pinned server-side session id ("" when ephemeral).
func (c *Client) Session() string { return c.session }

// CloseSession closes the pinned session (rolling back an open
// transaction server-side).
func (c *Client) CloseSession() error {
	if c.session == "" {
		return nil
	}
	req, err := http.NewRequest(http.MethodDelete, c.base+"/session?id="+c.session, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	c.session = ""
	return nil
}

// Health fetches the healthz report.
func (c *Client) Health() (*Health, error) {
	resp, err := c.hc.Get(c.base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	return &h, nil
}

// decodeJSON decodes a bounded JSON body.
func decodeJSON(r io.Reader, v any) error {
	return json.NewDecoder(io.LimitReader(r, 1<<20)).Decode(v)
}
