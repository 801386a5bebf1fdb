package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/mal"
	"repro/internal/par"
	"repro/internal/rel"
	"repro/internal/server/client"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
)

// span is one timed call into a layer. Parent and Stmt are -1 when the
// span has none (fsyncs of the group-commit loop belong to no single
// statement).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Stmt   int    `json:"stmt"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and per-statement layer timings in memory until the
// run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	recs  []stmtRec
	nstmt int
	sels  []string // distinct SELECT texts in first-seen order
	isSel map[string]bool
	// embedded holds the texts the embedded session has run, so a record
	// knows whether that call parsed or hit the parse cache.
	embedded map[string]bool
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), isSel: map[string]bool{}, embedded: map[string]bool{}}
}

func (t *tracer) add(name string, parent, stmt int, t0, t1 time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Stmt: stmt, Name: name,
		Start: int64(t0.Sub(t.epoch)), End: int64(t1.Sub(t.epoch))})
	return id
}

// stmtRec is one traced statement's layer timings.
type stmtRec struct {
	class   string
	sel     bool
	miss    bool // the embedded call's text was new, so the engine parsed it
	parse   time.Duration
	bind    time.Duration
	opt     time.Duration
	compile time.Duration
	run     time.Duration
	touched int64
	query   time.Duration // embedded Session.QueryContext
	render  time.Duration // Result.String()
	ttfb    time.Duration // request start to first response byte
	xfer    time.Duration // first to last response byte
	decode  time.Duration
	client  time.Duration // request start to decoded result
	bytes   int
}

// layerSelf returns the statement's self time per layer. The front-end
// and run calls are replayed by the benchmark just before the wire
// request, so they are the logical children of core, core and render
// the children of the server span, and server, transfer and decode the
// children of the client span; the self times add up to r.client.
func (r *stmtRec) layerSelf() []time.Duration {
	parse := time.Duration(0)
	if r.miss {
		parse = r.parse
	}
	return []time.Duration{
		parse, r.bind, r.opt, r.compile, r.run,
		r.query - parse - r.bind - r.opt - r.compile - r.run,
		r.render,
		r.ttfb - r.query - r.render,
		r.xfer, r.decode,
	}
}

// layerNames are the layers of layerSelf, in its order; the first five
// are also the names of the replayed calls' spans.
var layerNames = []string{"sql/parser", "rel.bind", "rel.optimize", "mal.compile", "mal.run",
	"core", "server.render", "server", "wire.transfer", "server/client.decode"}

// tracedExec runs a statement through every layer from the benchmark's
// own code, three times: a replay of parser.Parse, BindSelect, Optimize,
// Compile and RunCtx against the current snapshot; the embedded
// Session.QueryContext plus Result.String(); and the wire round trip with
// httptrace. The embedded call sends the text
// with one trailing space, so it has its own parse-cache entry, and the
// record notes whether that entry existed (evictions from the engine's
// 256-entry cache are not modelled). Writes run twice, embedded and over
// the wire; every write of the workloads sets values, so either order
// leaves the same state.
type tracedExec struct {
	t    *tracer
	db   *core.DB
	sess *core.Session
	url  string
	hc   *http.Client
}

func (x *tracedExec) exec(s *stmt) (*client.Result, time.Duration, error) {
	t := x.t
	t.mu.Lock()
	id := t.nstmt
	t.nstmt++
	miss := !t.embedded[s.sql]
	t.embedded[s.sql] = true
	t.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := stmtRec{class: s.class, miss: miss}

	// The three executions rotate in order, so none always pays for the
	// garbage of the others or runs on caches they warmed.
	var (
		front [][2]time.Time
		q     [3]time.Time
		w     [4]time.Time
		res   *client.Result
		werr  error
	)
	steps := []func() error{
		func() (err error) { front, err = x.replay(ctx, s.sql, &rec); return err },
		func() (err error) { q, err = x.embedded(ctx, s.sql, &rec); return err },
		func() error { res, w, werr = x.wire(ctx, s.sql, &rec); return nil },
	}
	for i := range steps {
		if err := steps[(id+i)%len(steps)](); err != nil {
			return nil, 0, err
		}
	}

	cl := t.add("server/client", -1, id, w[0], w[3])
	srv := t.add("server", cl, id, w[0], w[1])
	coreID := t.add("core", srv, id, q[0], q[1])
	t.add("server.render", srv, id, q[1], q[2])
	for i, fs := range front {
		parent := coreID
		if i == 0 && !rec.miss {
			parent = -1 // the engine's parse cache answered; only the replay parsed
		}
		t.add(layerNames[i], parent, id, fs[0], fs[1])
	}
	t.add("wire.transfer", cl, id, w[1], w[2])
	t.add("server/client.decode", cl, id, w[2], w[3])
	t.mu.Lock()
	t.recs = append(t.recs, rec)
	t.mu.Unlock()
	return res, rec.client, werr
}

// wire makes the round trip as internal/server/client does, with
// httptrace marking the first response byte. It returns the result and
// the request start, first byte, last byte and decode end.
func (x *tracedExec) wire(ctx context.Context, sql string, rec *stmtRec) (*client.Result, [4]time.Time, error) {
	var w [4]time.Time
	body, err := json.Marshal(map[string]string{"query": sql})
	if err != nil {
		return nil, w, err
	}
	trace := &httptrace.ClientTrace{GotFirstResponseByte: func() { w[1] = time.Now() }}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), http.MethodPost, x.url, bytes.NewReader(body))
	if err != nil {
		return nil, w, err
	}
	req.Header.Set("Content-Type", "application/json")
	w[0] = time.Now()
	resp, err := x.hc.Do(req)
	if err != nil {
		return nil, w, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	w[2] = time.Now()
	if err != nil {
		return nil, w, err
	}
	var qr struct {
		Results []client.Result `json:"results"`
		Error   string          `json:"error"`
	}
	err = json.Unmarshal(data, &qr)
	w[3] = time.Now()
	if w[1].IsZero() {
		w[1] = w[2]
	}
	rec.ttfb, rec.xfer, rec.decode, rec.client, rec.bytes = w[1].Sub(w[0]), w[2].Sub(w[1]), w[3].Sub(w[2]), w[3].Sub(w[0]), len(data)
	switch {
	case err != nil:
		return nil, w, fmt.Errorf("bad server response (HTTP %d): %v", resp.StatusCode, err)
	case qr.Error != "":
		return nil, w, fmt.Errorf("%s", qr.Error)
	case resp.StatusCode != http.StatusOK:
		return nil, w, fmt.Errorf("HTTP %d", resp.StatusCode)
	case len(qr.Results) == 0:
		return nil, w, fmt.Errorf("no result")
	}
	return &qr.Results[0], w, nil
}

// replay times parser.Parse and, for a SELECT, BindSelect, Optimize,
// Compile and RunCtx against the current snapshot. It returns the spans'
// start and end times in that order.
func (x *tracedExec) replay(ctx context.Context, sql string, rec *stmtRec) ([][2]time.Time, error) {
	t0 := time.Now()
	stmts, err := parser.Parse(sql)
	t1 := time.Now()
	rec.parse = t1.Sub(t0)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	spans := [][2]time.Time{{t0, t1}}
	var sel *ast.Select
	if len(stmts) == 1 {
		sel, _ = stmts[0].(*ast.Select)
	}
	if sel == nil {
		return spans, nil
	}
	rec.sel = true
	b0 := time.Now()
	plan, err := rel.NewBinder(x.db.Snapshot()).BindSelect(sel)
	b1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("bind: %w", err)
	}
	plan = rel.Optimize(plan)
	o1 := time.Now()
	prog, err := mal.Compile(plan)
	c1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	tb := bat.TouchedBytes()
	r0 := time.Now()
	_, err = mal.RunCtx(ctx, prog)
	r1 := time.Now()
	rec.touched = bat.TouchedBytes() - tb
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	rec.bind, rec.opt, rec.compile, rec.run = b1.Sub(b0), o1.Sub(b1), c1.Sub(o1), r1.Sub(r0)
	x.t.mu.Lock()
	if !x.t.isSel[sql] {
		x.t.isSel[sql] = true
		x.t.sels = append(x.t.sels, sql)
	}
	x.t.mu.Unlock()
	return append(spans, [2]time.Time{b0, b1}, [2]time.Time{b1, o1}, [2]time.Time{o1, c1}, [2]time.Time{r0, r1}), nil
}

// embedded times Session.QueryContext and Result.String(); it returns
// the start of the query, its end and the end of the rendering.
func (x *tracedExec) embedded(ctx context.Context, sql string, rec *stmtRec) ([3]time.Time, error) {
	q0 := time.Now()
	res, err := x.sess.QueryContext(ctx, sql+" ")
	q1 := time.Now()
	if err != nil {
		return [3]time.Time{}, fmt.Errorf("embedded: %w", err)
	}
	_ = res.String()
	q2 := time.Now()
	rec.query, rec.render = q1.Sub(q0), q2.Sub(q1)
	return [3]time.Time{q0, q1, q2}, nil
}

// speedup re-runs the traced SELECT texts through mal.RunCtx at the
// default kernel width and at par.SetThreads(1), alternating, and
// returns the summed one-thread time over the summed default time. It
// stops after budget.
func (t *tracer) speedup(db *core.DB, budget time.Duration) (float64, error) {
	var one, def time.Duration
	deadline := time.Now().Add(budget)
	texts := t.sels
	if len(texts) > 16 {
		texts = texts[:16]
	}
	runAt := func(prog *mal.Program, threads int) (time.Duration, error) {
		prev := par.SetThreads(threads)
		defer par.SetThreads(prev)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		t0 := time.Now()
		_, err := mal.RunCtx(ctx, prog)
		return time.Since(t0), err
	}
	for rep := 0; rep < 3 && time.Now().Before(deadline); rep++ {
		for _, text := range texts {
			stmts, err := parser.Parse(text)
			if err != nil {
				return 0, err
			}
			plan, err := rel.NewBinder(db.Snapshot()).BindSelect(stmts[0].(*ast.Select))
			if err != nil {
				return 0, err
			}
			prog, err := mal.Compile(rel.Optimize(plan))
			if err != nil {
				return 0, err
			}
			d0, err := runAt(prog, 0)
			if err != nil {
				return 0, err
			}
			d1, err := runAt(prog, 1)
			if err != nil {
				return 0, err
			}
			def += d0
			one += d1
			if time.Now().After(deadline) {
				break
			}
		}
	}
	if def == 0 {
		return 0, nil
	}
	return float64(one) / float64(def), nil
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentile(s, 0.5)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// layerRow is one line of the per-layer summary.
type layerRow struct {
	Layer string `json:"layer"`
	// BandUS is the mean self time over the statements whose client
	// latency is nearest the median; these add up to that band's mean.
	BandUS    float64 `json:"self_at_median_us"`
	MeanUS    float64 `json:"self_mean_us"`
	ShareMean float64 `json:"share_of_mean_client"`
}

// classRow is one statement class's mean layer self times.
type classRow struct {
	Statements int                `json:"statements"`
	ClientUS   float64            `json:"client_mean_us"`
	SelfUS     map[string]float64 `json:"self_mean_us"`
}

// layerSummary is the traced run's account of the client-observed
// latency: each layer's self time, and what it leaves unattributed.
type layerSummary struct {
	Statements     int     `json:"statements"`
	ClientMedianUS float64 `json:"client_median_us"`
	ClientMeanUS   float64 `json:"client_mean_us"`
	// Band is the number of statements nearest the median client latency
	// whose self times make up the account of the median.
	Band            int                 `json:"median_band_statements"`
	Layers          []layerRow          `json:"layers"`
	UnattributedUS  float64             `json:"unattributed_of_median_us"`
	UntracedMedian  float64             `json:"untraced_client_median_us"`
	TracingOverhead float64             `json:"tracing_overhead_share"`
	Classes         map[string]classRow `json:"classes"`
}

func (t *tracer) summary(untraced time.Duration) layerSummary {
	n := len(t.recs)
	sum := layerSummary{Statements: n, Classes: map[string]classRow{}}
	if n == 0 {
		return sum
	}
	recs := append([]stmtRec(nil), t.recs...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].client < recs[j].client })
	mid := (n+1)/2 - 1 // nearest-rank median
	half := n / 20
	lo, hi := max(0, mid-half), min(n, mid+half+1)
	sum.Band = hi - lo
	med := recs[mid].client
	sum.ClientMedianUS = us(med)

	var clientTotal time.Duration
	total := make([]time.Duration, len(layerNames))
	band := make([]time.Duration, len(layerNames))
	for i := range recs {
		r := &recs[i]
		clientTotal += r.client
		c := sum.Classes[r.class]
		if c.SelfUS == nil {
			c.SelfUS = map[string]float64{}
		}
		c.Statements++
		c.ClientUS += us(r.client)
		for l, d := range r.layerSelf() {
			total[l] += d
			c.SelfUS[layerNames[l]] += us(d)
			if i >= lo && i < hi {
				band[l] += d
			}
		}
		sum.Classes[r.class] = c
	}
	for name, c := range sum.Classes {
		c.ClientUS /= float64(c.Statements)
		for l := range c.SelfUS {
			c.SelfUS[l] /= float64(c.Statements)
		}
		sum.Classes[name] = c
	}
	sum.ClientMeanUS = us(clientTotal) / float64(n)
	rest := us(med)
	for l, name := range layerNames {
		b := us(band[l]) / float64(sum.Band)
		rest -= b
		sum.Layers = append(sum.Layers, layerRow{Layer: name, BandUS: b,
			MeanUS: us(total[l]) / float64(n), ShareMean: float64(total[l]) / float64(clientTotal)})
	}
	sum.UnattributedUS = rest
	sum.UntracedMedian = us(untraced)
	if untraced > 0 {
		sum.TracingOverhead = float64(med-untraced) / float64(untraced)
	}
	return sum
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
