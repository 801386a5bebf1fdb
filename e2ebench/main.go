// Command e2ebench is the repository's end-to-end benchmark. It loads
// seeded inputs into an in-process sciqld on 127.0.0.1, drives it through
// internal/server/client in closed loops and checks every answer.
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it first
// runs a third of the time untraced, then traces the rest by timing calls
// into each layer's public functions, and prints the per-layer metrics.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// Result files (with the machine record), spans and the per-layer
// summary are written under .bench_build/e2ebench/ in the checkout. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/server/client"
)

// An untraced run loads and starts the server at least minSetups times
// and then again until setupBudget has gone by, up to maxSetups times;
// setup_s is the median. Short set-ups (point_rw) get more repeats, so
// their median is as steady as that of the long ones.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 5 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "array_analytics, result_stream or point_rw")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "measured time per run")
		trace   = flag.Int("trace", 0, "1 = traced run (per-layer metrics)")
		root    = flag.String("root", "..", "repository checkout")
		commit  = flag.String("commit", "unknown", "commit of the code under test")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *root, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "array_analytics":
		return newAnalytics(seed)
	case "result_stream":
		return newStream(seed), nil
	case "point_rw":
		return newPointRW(seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count or base, for the human-readable table
	// gated marks the metrics of the final JSON line: BENCHMARK.json's
	// end_to_end list (untraced) or per_layer list (traced).
	gated bool
}

func run(name string, seed int64, seconds, trace int, root, commit string) error {
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "internal", "server")); err != nil {
		return fmt.Errorf("-root %s is not the repository checkout", root)
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	http.DefaultTransport = wire
	out := filepath.Join(root, ".bench_build", "e2ebench")
	work := filepath.Join(out, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(filepath.Join(out, "results"), 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	mach := machineRecord(root, commit)
	stem := filepath.Join(out, "results", fmt.Sprintf("%s-seed%d-trace%d", name, seed, trace))
	d := time.Duration(seconds) * time.Second

	var (
		ms        []metric
		attempted int
		failed    int
		extra     = map[string]any{}
	)
	if trace == 0 {
		ms, attempted, failed, err = untraced(w, work, seed, d, extra)
	} else {
		ms, attempted, failed, err = traced(w, work, seed, d, stem, extra)
	}
	if err != nil {
		return err
	}
	for i := range ms {
		if math.IsNaN(ms[i].value) || math.IsInf(ms[i].value, 0) {
			ms[i].value = 0 // JSON has no NaN; only an empty phase yields one
		}
	}

	fmt.Printf("e2ebench %s seed=%d trace=%d clients=%d (closed loop) seconds=%d\n", name, seed, trace, w.clients(), seconds)
	fmt.Printf("machine: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		mach.CPU, mach.NProc, mach.GOMAXPROCS, mach.GoVersion, mach.Commit, mach.Source[:12])
	fmt.Println("client and server share one process; heap and allocation figures cover both")
	for _, m := range ms {
		fmt.Printf("  %-32s %16.6g %-8s %s\n", m.name, m.value, m.unit, m.note)
	}
	if n, ok := extra["diverged"].(int); ok && n > 0 {
		fmt.Printf("  note: %d correct answers differ from the one-thread engine's (float SUM depends on the thread count), first: %s\n",
			n, extra["first_divergence"])
	}
	if errs, ok := extra["first_errors"].([]string); ok {
		for _, e := range errs {
			fmt.Println("  error:", e)
		}
	}

	record := map[string]any{
		"workload": name, "seed": seed, "trace": trace, "seconds": seconds, "clients": w.clients(),
		"loop": "closed", "machine": mach, "config": w.describe(), "attempted": attempted, "failed": failed,
	}
	mm := map[string]any{}
	for _, m := range ms {
		mm[m.name] = map[string]any{"value": m.value, "unit": m.unit, "note": m.note}
	}
	record["metrics"] = mm
	for k, v := range extra {
		record[k] = v
	}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("result file:", strings.TrimPrefix(stem+".json", root+string(filepath.Separator)))

	var sb strings.Builder
	fmt.Fprintf(&sb, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, failed == 0, attempted, failed)
	n := 0
	for _, m := range ms {
		if !m.gated {
			continue
		}
		if n > 0 {
			sb.WriteString(", ")
		}
		n++
		fmt.Fprintf(&sb, `%q: {"value": %s, "unit": %q}`, m.name, jsonNumber(m.value), m.unit)
	}
	sb.WriteString("}}")
	fmt.Println(sb.String())
	return nil
}

func jsonNumber(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// setupAll loads and starts the server at least atLeast times and then
// again until budget has gone by, up to atMost times, keeping the last.
func setupAll(w workload, work string, seed int64, atLeast, atMost int, budget time.Duration) (*env, state, []time.Duration, time.Duration, error) {
	var (
		e    *env
		st   state
		took []time.Duration
		refs time.Duration
	)
	t0 := time.Now()
	for i := 0; i < atMost && (i < atLeast || time.Since(t0) < budget); i++ {
		if e != nil {
			e.close()
		}
		var t, r time.Duration
		var err error
		e, st, t, r, err = setup(w, filepath.Join(work, fmt.Sprintf("store%d", i)), seed, i == 0)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		took = append(took, t)
		refs += r
	}
	return e, st, took, refs, nil
}

func clientsFor(w workload, addr string) []executor {
	out := make([]executor, w.clients())
	for c := range out {
		out[c] = plainExec{client.New(addr)}
	}
	return out
}

// untraced measures the end-to-end metrics.
func untraced(w workload, work string, seed int64, d time.Duration, extra map[string]any) ([]metric, int, int, error) {
	e, st, took, refs, err := setupAll(w, work, seed, minSetups, maxSetups, setupBudget)
	if err != nil {
		return nil, 0, 0, err
	}
	defer e.close()
	h0, err := client.New(e.addr).Health()
	if err != nil {
		return nil, 0, 0, err
	}
	commits0, _ := e.db.CommitStats()
	gen0 := e.db.WALPosition().Gen
	fs0 := e.fs.counters()
	p := closedLoop(w, st, clientsFor(w, e.addr), newTextSet(), seed, d)
	fs1 := e.fs.counters()
	h1, err := client.New(e.addr).Health()
	if err != nil {
		return nil, 0, 0, err
	}
	commits1, _ := e.db.CommitStats()
	lost, err := crashCheck(e, st)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("durability check: %w", err)
	}

	attempted := len(p.samples)
	bad, first := p.failed()
	failed := bad + lost
	div, firstDiv := p.diverged()
	var rows, okStmts, writes int
	for _, s := range p.samples {
		rows += s.rows
		if s.ok {
			okStmts++
		}
		if s.write {
			writes++
		}
	}
	all := func(sample) bool { return true }
	wr := func(s sample) bool { return s.write }
	pct := func(keep func(sample) bool, q float64) float64 {
		return p.perGroup(func(g []sample) float64 { return ms(percentile(p.latencies(g, keep), q)) })
	}
	sorted := append([]time.Duration(nil), took...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	k := len(p.groups())
	n := func(total int) string { return fmt.Sprintf("n=%d, median of %d groups", total, k) }
	// Throughput, the p90 and the write latencies are reported but not
	// gated: on point_rw they follow the host's fsync latency, which moves
	// between runs by more than any bound (README).
	out := []metric{
		{"throughput_sps", p.perGroup(throughput), "1/s", fmt.Sprintf("%d ok in %.1fs, median of %d groups", okStmts, p.elapsed.Seconds(), k), false},
		{"latency_p50_ms", pct(all, 0.5), "ms", n(attempted), true},
		{"latency_p90_ms", pct(all, 0.9), "ms", n(attempted), false},
		{"write_p50_ms", pct(wr, 0.5), "ms", n(writes), false},
		{"write_p90_ms", pct(wr, 0.9), "ms", n(writes), false},
		{"error_rate", float64(failed+div) / float64(max(1, attempted)), "ratio",
			fmt.Sprintf("failed=%d (lost writes %d) diverged=%d attempted=%d", failed, lost, div, attempted), false},
		{"success_rate", 1 - float64(failed)/float64(max(1, attempted)), "ratio", "1 - failed/attempted; diverged answers are correct", true},
		{"wire_bytes_per_row", float64(p.bodyBytes) / float64(max(1, rows)), "B/row", fmt.Sprintf("%d bytes / %d rows", p.bodyBytes, rows), true},
		{"allocs_per_stmt", float64(p.mallocs) / float64(max(1, attempted)), "count", "whole process", true},
		{"alloc_bytes_per_stmt", float64(p.allocBytes) / float64(max(1, attempted)), "B", "whole process", true},
		{"peak_heap_mb", float64(p.peakHeap()) / (1 << 20), "MB", "median over decks of the highest HeapInuse, client and server", true},
		{"setup_s", sorted[len(sorted)/2].Seconds(), "s", fmt.Sprintf("median of %d", len(took)), true},
	}
	if writes == 0 { // the write latencies exist only where the workload writes
		out = append(out[:3], out[5:]...)
	}
	extra["setup_runs_s"] = durations(took, time.Second)
	extra["references_s"] = refs.Seconds()
	extra["classes"] = p.classTable()
	extra["writes"] = writes
	extra["text_repeat_share"] = p.repeatShare()
	extra["server_shed"] = h1.Rejected - h0.Rejected
	extra["commits"] = commits1 - commits0
	extra["checkpoints"] = e.db.WALPosition().Gen - gen0
	extra["lost_writes"] = lost
	extra["diverged"] = div
	if div > 0 {
		extra["first_divergence"] = firstDiv
	}
	if n := fs1.fsyncs - fs0.fsyncs; n > 0 {
		extra["fsyncs"] = n
		extra["fsync_mean_us"] = float64(fs1.fsyncNanos-fs0.fsyncNanos) / float64(n) / 1e3
	}
	if len(first) > 0 {
		extra["first_errors"] = first
	}
	return out, attempted, failed, nil
}

func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// traced measures the per-layer metrics.
func traced(w workload, work string, seed int64, d time.Duration, stem string, extra map[string]any) ([]metric, int, int, error) {
	e, st, _, _, err := setupAll(w, work, seed, 1, 1, 0)
	if err != nil {
		return nil, 0, 0, err
	}
	defer e.close()
	texts := newTextSet()
	base := closedLoop(w, st, clientsFor(w, e.addr), texts, seed, d/3)
	untracedMedian := percentile(base.latencies(base.samples, func(sample) bool { return true }), 0.5)

	t := newTracer()
	if e.fs != nil {
		e.fs.setTracer(t)
	}
	h0, err := client.New(e.addr).Health()
	if err != nil {
		return nil, 0, 0, err
	}
	commits0, syncs0 := e.db.CommitStats()
	ckpt0 := e.db.CheckpointBytes()
	fs0 := e.fs.counters()
	execs := make([]executor, w.clients())
	for c := range execs {
		execs[c] = &tracedExec{t: t, db: e.db, sess: e.db.NewSession(), url: "http://" + e.addr + "/query",
			hc: &http.Client{Timeout: 60 * time.Second}}
	}
	p := closedLoop(w, st, execs, texts, seed*31+1, d-d/3)
	h1, err := client.New(e.addr).Health()
	if err != nil {
		return nil, 0, 0, err
	}
	commits1, syncs1 := e.db.CommitStats()
	ckpt1 := e.db.CheckpointBytes()
	fs1 := e.fs.counters()
	if e.fs != nil {
		e.fs.setTracer(nil)
	}
	speedup, err := t.speedup(e.db, max(2*time.Second, d/4))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("speedup: %w", err)
	}
	lost, err := crashCheck(e, st)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("durability check: %w", err)
	}

	attempted := len(base.samples) + len(p.samples)
	bad0, first0 := base.failed()
	bad1, first1 := p.failed()
	failed := bad0 + bad1 + lost
	div0, firstDiv := base.diverged()
	div1, firstDiv1 := p.diverged()
	if div0 == 0 {
		firstDiv = firstDiv1
	}
	extra["diverged"] = div0 + div1
	if div0+div1 > 0 {
		extra["first_divergence"] = firstDiv
	}

	var parse, bind, opt, comp, run, query, overhead, render, self, xfer, dec []time.Duration
	var touched, bodyBytes int64
	sels := 0
	for i := range t.recs {
		r := &t.recs[i]
		parse = append(parse, r.parse)
		if r.sel {
			sels++
			bind, opt, comp, run = append(bind, r.bind), append(opt, r.opt), append(comp, r.compile), append(run, r.run)
			touched += r.touched
		}
		query = append(query, r.query)
		overhead = append(overhead, r.layerSelf()[5])
		render = append(render, r.render)
		self = append(self, r.ttfb-r.query)
		xfer, dec = append(xfer, r.xfer), append(dec, r.decode)
		bodyBytes += int64(r.bytes)
	}
	nrec := len(t.recs)
	// A user byte is one 8-byte value per cell or row a write changed;
	// each traced write ran twice, embedded and over the wire.
	var userBytes int
	for _, s := range p.samples {
		userBytes += 2 * 8 * s.affected
	}
	fsyncs := fs1.fsyncs - fs0.fsyncs
	var fsyncUS float64
	if fsyncs > 0 {
		fsyncUS = float64(fs1.fsyncNanos-fs0.fsyncNanos) / float64(fsyncs) / 1e3
	}
	var perCommit float64
	if commits1 > commits0 {
		perCommit = float64(syncs1-syncs0) / float64(commits1-commits0)
	}
	sum := t.summary(untracedMedian)
	nSel, nAll := fmt.Sprintf("median, n=%d SELECTs", sels), fmt.Sprintf("median, n=%d", nrec)
	out := []metric{
		{"parser.parse_us", us(medianDur(parse)), "us", nAll, true},
		{"rel.bind_us", us(medianDur(bind)), "us", nSel, true},
		{"rel.optimize_us", us(medianDur(opt)), "us", nSel, true},
		{"mal.compile_us", us(medianDur(comp)), "us", nSel, true},
		{"core.text_repeat_share", p.repeatShare(), "ratio", fmt.Sprintf("of %d statements", len(p.samples)), true},
		{"mal.run_us", us(medianDur(run)), "us", nSel, true},
		{"bat.bytes_touched_per_stmt", float64(touched) / float64(max(1, sels)), "B", "mean over SELECTs", true},
		{"par.speedup", speedup, "ratio", "RunCtx time at 1 thread / at default", true},
		{"core.query_us", us(medianDur(query)), "us", nAll, true},
		{"core.overhead_us", us(medianDur(overhead)), "us", nAll, true},
		{"server.render_us", us(medianDur(render)), "us", nAll, true},
		{"server.self_us", us(medianDur(self)), "us", nAll, true},
		{"wire.transfer_us", us(medianDur(xfer)), "us", nAll, true},
		{"client.decode_us", us(medianDur(dec)), "us", nAll, true},
		{"wire.response_bytes_per_stmt", float64(bodyBytes) / float64(max(1, nrec)), "B", "mean", true},
		{"server.shed", float64(h1.Rejected - h0.Rejected), "count", "healthz rejected delta", true},
		{"core.fsyncs_per_commit", perCommit, "ratio", fmt.Sprintf("%d commits", commits1-commits0), true},
		{"core.checkpoint_bytes", float64(ckpt1 - ckpt0), "B", "CheckpointBytes delta", true},
		{"vfs.fsync_us", fsyncUS, "us", "mean per fsync", true},
		{"vfs.fsyncs", float64(fsyncs), "count", "file and directory fsyncs", true},
		{"vfs.write_calls", float64(fs1.writeCalls - fs0.writeCalls), "count", "", true},
		{"vfs.bytes_written_per_user_byte", float64(fs1.bytesWritten-fs0.bytesWritten) / float64(max(1, userBytes)), "ratio", fmt.Sprintf("%d user bytes: 8 per changed cell or row", userBytes), true},
		{"trace.client_p50_us", sum.ClientMedianUS, "us", nAll, true},
		{"trace.unattributed_us", sum.UnattributedUS, "us", "client median minus the layer self times at the median", true},
		{"trace.overhead_share", sum.TracingOverhead, "ratio", fmt.Sprintf("vs untraced median %.1fus", sum.UntracedMedian), true},
	}
	if first := append(first0, first1...); len(first) > 0 {
		extra["first_errors"] = first
	}
	extra["layers"] = sum
	extra["lost_writes"] = lost
	extra["classes"] = p.classTable()
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return nil, 0, 0, err
	}
	if err := os.WriteFile(stem+"-layers.json", append(data, '\n'), 0o644); err != nil {
		return nil, 0, 0, err
	}
	if err := t.writeSpans(stem + "-spans.jsonl"); err != nil {
		return nil, 0, 0, err
	}
	fmt.Printf("layer self times, traced: %d statements, client median %.1fus (account from the %d statements nearest it), mean %.1fus\n",
		sum.Statements, sum.ClientMedianUS, sum.Band, sum.ClientMeanUS)
	for _, l := range sum.Layers {
		fmt.Printf("  %-22s at median %12.1fus   mean %12.1fus  %6.1f%% of mean client\n", l.Layer, l.BandUS, l.MeanUS, 100*l.ShareMean)
	}
	fmt.Printf("  unattributed remainder of the median: %.1fus; tracing overhead %+.1f%% against the untraced median %.1fus\n",
		sum.UnattributedUS, 100*sum.TracingOverhead, sum.UntracedMedian)
	return out, attempted, failed, nil
}
