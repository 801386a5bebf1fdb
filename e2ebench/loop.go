package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/client"
)

// wire counts the response body bytes every client of the process reads:
// internal/server/client uses http.DefaultTransport, which main replaces
// with it.
var wire = &countingTransport{inner: http.DefaultTransport}

type countingTransport struct {
	inner http.RoundTripper
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}

// Close drains what the reader left (a trailing newline after the JSON
// value), so the count is the whole body and the connection is reused.
func (b *countingBody) Close() error {
	k, _ := io.Copy(io.Discard, b.ReadCloser)
	b.n.Add(k)
	return b.ReadCloser.Close()
}

// env is one loaded database served by an in-process sciqld.
type env struct {
	dir  string // store directory of a directory-backed workload
	db   *core.DB
	fs   *syncFS
	srv  *server.Server
	addr string
}

func (e *env) close() {
	if e.srv != nil {
		_ = e.srv.Close()
	}
	if e.db != nil {
		_ = e.db.Close()
	}
	_ = os.RemoveAll(e.dir)
}

// setup loads a fresh database into dir, starts the server on loopback
// and warms it with one statement of each class. refs, when set, runs
// against the freshly loaded database before the server starts; its time
// is returned apart from the set-up time.
func setup(w workload, dir string, seed int64, refs bool) (e *env, st state, took, refsTook time.Duration, err error) {
	t0 := time.Now()
	e = &env{dir: dir}
	if e.db, e.fs, err = w.open(dir); err != nil {
		e.close()
		return nil, nil, 0, 0, fmt.Errorf("load: %w", err)
	}
	if refs {
		r0 := time.Now()
		if err = w.references(e.db); err != nil {
			e.close()
			return nil, nil, 0, 0, fmt.Errorf("references: %w", err)
		}
		refsTook = time.Since(r0)
	}
	e.srv = server.New(e.db, server.Config{Addr: "127.0.0.1:0"})
	if err = e.srv.Start(); err != nil {
		e.srv = nil
		e.close()
		return nil, nil, 0, 0, fmt.Errorf("server: %w", err)
	}
	e.addr = e.srv.Addr().String()
	st = w.newState()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for c := 0; c < w.clients(); c++ {
		cl := client.New(e.addr)
		warmed := map[string]bool{}
		for _, class := range w.deck() {
			if warmed[class] {
				continue
			}
			warmed[class] = true
			s := st.next(c, class, rng)
			if _, err = cl.Query(s.sql); err != nil {
				e.close()
				return nil, nil, 0, 0, fmt.Errorf("warm-up %s: %w", class, err)
			}
			if s.acked != nil {
				s.acked()
			}
		}
	}
	return e, st, time.Since(t0) - refsTook, refsTook, nil
}

// executor runs one statement for one client and returns the answer and
// the latency the client observed.
type executor interface {
	exec(s *stmt) (*client.Result, time.Duration, error)
}

type plainExec struct{ cl *client.Client }

func (x plainExec) exec(s *stmt) (*client.Result, time.Duration, error) {
	t0 := time.Now()
	r, err := x.cl.Query(s.sql)
	return r, time.Since(t0), err
}

// sample is one statement of a measured phase.
type sample struct {
	class string
	write bool
	ok    bool
	// answered is false when no result arrived (HTTP error, shed or
	// refused statement, truncated body).
	answered bool
	lat      time.Duration
	end      time.Duration // completion, since the phase started
	client   int
	deck     int // the client's deck number
	rows     int
	err      string
	affected int  // cells or rows a write changed
	repeat   bool // the exact text was sent earlier in the run
	// diverged marks a correct answer that differs from the one-thread
	// engine's (divergence); note says how.
	diverged bool
	note     string
}

// phase is what one closed-loop phase measured.
type phase struct {
	samples    []sample
	elapsed    time.Duration
	bodyBytes  int64
	mallocs    uint64
	allocBytes uint64
	heap       []heapSample
}

// heapSample is one reading of HeapInuse, at a time since the phase
// started.
type heapSample struct {
	at    time.Duration
	bytes uint64
}

// closedLoop runs every client in a closed loop for at least d: each
// client sends its next statement when the previous answer has arrived
// and been checked, and stops after the whole deck during which d ran
// out. Statements are drawn from st with per-client seeded generators.
func closedLoop(w workload, st state, execs []executor, texts *textSet, seed int64, d time.Duration) *phase {
	p := &phase{}
	var mu sync.Mutex
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	bytes0 := wire.bytes.Load()
	t0 := time.Now()
	stopHeap := sampleHeap(t0, &p.heap)
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for c, x := range execs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
			var out []sample
			deck := w.deck()
			for n := 0; time.Now().Before(deadline); n++ {
				rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
				for _, class := range deck {
					s := st.next(c, class, rng)
					s.repeat = texts.mark(s.sql)
					res, lat, err := x.exec(&s)
					if err == nil && s.acked != nil {
						s.acked() // the server acknowledged the write
					}
					var div *divergence
					if err == nil && s.check != nil {
						if cerr := s.check(res); cerr != nil && !errors.As(cerr, &div) {
							err = fmt.Errorf("wrong answer: %w", cerr)
						}
					}
					sm := sample{class: class, write: s.write, ok: err == nil, answered: res != nil, lat: lat,
						end: time.Since(t0), client: c, deck: n, repeat: s.repeat, diverged: div != nil}
					if div != nil {
						sm.note = fmt.Sprintf("%s: %v", class, div)
					}
					if res != nil {
						sm.rows = len(res.Rows)
					}
					if err != nil {
						sm.err = fmt.Sprintf("%s: %v", class, err)
					}
					if s.write && res != nil {
						sm.affected = res.Affected
					}
					out = append(out, sm)
				}
			}
			mu.Lock()
			p.samples = append(p.samples, out...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(t0)
	p.bodyBytes = wire.bytes.Load() - bytes0
	runtime.ReadMemStats(&ms1)
	stopHeap()
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return p
}

// sampleHeap reads HeapInuse every 5 ms into out until the returned
// stop function is called; stop waits for the sampler to end.
func sampleHeap(t0 time.Time, out *[]heapSample) (stop func()) {
	ms := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	read := func() {
		metrics.Read(ms)
		*out = append(*out, heapSample{time.Since(t0), ms[0].Value.Uint64() + ms[1].Value.Uint64()})
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// peakHeap is the median over client 0's decks of the highest HeapInuse
// sampled while the deck ran. The highest reading of a whole run depends
// on where garbage collections happen to fall; the per-deck peak repeats.
func (p *phase) peakHeap() uint64 {
	spans := map[int][2]time.Duration{}
	for _, s := range p.samples {
		if s.client != 0 {
			continue
		}
		sp, ok := spans[s.deck]
		if !ok {
			sp = [2]time.Duration{s.end - s.lat, s.end}
		}
		spans[s.deck] = [2]time.Duration{min(sp[0], s.end-s.lat), max(sp[1], s.end)}
	}
	var peaks []float64
	for _, sp := range spans {
		var peak uint64
		for _, h := range p.heap {
			if h.at >= sp[0] && h.at <= sp[1] {
				peak = max(peak, h.bytes)
			}
		}
		peaks = append(peaks, float64(peak))
	}
	return uint64(median(peaks))
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	if n := len(vals); n%2 == 0 {
		return (vals[n/2-1] + vals[n/2]) / 2
	}
	return vals[len(vals)/2]
}

// textSet remembers the statement texts sent in a run.
type textSet struct {
	mu   sync.Mutex
	seen map[string]bool
}

func newTextSet() *textSet { return &textSet{seen: map[string]bool{}} }

// mark records text and reports whether it was sent before.
func (t *textSet) mark(text string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seen[text] {
		return true
	}
	t.seen[text] = true
	return false
}

// repeatShare is the share of the phase's statements whose exact text
// was sent earlier in the run.
func (p *phase) repeatShare() float64 {
	n := 0
	for _, s := range p.samples {
		if s.repeat {
			n++
		}
	}
	return float64(n) / float64(max(1, len(p.samples)))
}

// percentile is the nearest-rank percentile of sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// latencies returns the sorted latencies of the samples keep selects. A
// statement that got no answer counts as slower than any answer: it
// takes the phase's whole length. A wrong answer keeps the time it took
// (error_rate counts it).
func (p *phase) latencies(ss []sample, keep func(sample) bool) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if !keep(s) {
			continue
		}
		if s.answered {
			out = append(out, s.lat)
		} else {
			out = append(out, p.elapsed)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// groups splits the phase into consecutive runs of whole decks, as many
// as give each at least 100 statements, up to 10. Timing metrics are
// taken per group and reported as the median over groups, so a burst of
// load from outside the benchmark moves one group rather than the run.
func (p *phase) groups() [][]sample {
	decks := 0
	for _, s := range p.samples {
		decks = max(decks, s.deck+1)
	}
	k := max(1, min(10, len(p.samples)/100, decks))
	out := make([][]sample, k)
	for _, s := range p.samples {
		g := s.deck * k / decks
		out[g] = append(out[g], s)
	}
	return out
}

// perGroup returns the median over groups of f.
func (p *phase) perGroup(f func([]sample) float64) float64 {
	var vals []float64
	for _, g := range p.groups() {
		vals = append(vals, f(g))
	}
	return median(vals)
}

// throughput is the answered statements per second of a group, over the
// span from its first statement's start to its last one's end.
func throughput(g []sample) float64 {
	var first, last time.Duration = math.MaxInt64, 0
	ok := 0
	for _, s := range g {
		first, last = min(first, s.end-s.lat), max(last, s.end)
		if s.ok {
			ok++
		}
	}
	return float64(ok) / (last - first).Seconds()
}

func (p *phase) failed() (n int, first []string) {
	for _, s := range p.samples {
		if !s.ok {
			n++
			if len(first) < 5 {
				first = append(first, s.err)
			}
		}
	}
	return n, first
}

// diverged counts the statements whose answer was correct but not the
// one-thread engine's, and returns the first such note.
func (p *phase) diverged() (n int, first string) {
	for _, s := range p.samples {
		if s.diverged {
			if n == 0 {
				first = s.note
			}
			n++
		}
	}
	return n, first
}

// classTable summarises the phase per statement class for the result file.
func (p *phase) classTable() map[string]any {
	by := map[string][]time.Duration{}
	for _, s := range p.samples {
		by[s.class] = append(by[s.class], s.lat)
	}
	out := map[string]any{}
	for class, lats := range by {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		out[class] = map[string]any{"n": len(lats), "p50_ms": ms(percentile(lats, 0.5)), "p90_ms": ms(percentile(lats, 0.9))}
	}
	return out
}

// crashCheck rebuilds the store from the bytes its fsyncs made durable,
// in a sibling directory, reopens it read-only without closing it (Close
// would write) and returns how many acknowledged writes it lost.
func crashCheck(e *env, st state) (int, error) {
	if e.fs == nil {
		return st.lost(nil)
	}
	img := e.dir + "-crash"
	defer os.RemoveAll(img)
	if err := e.fs.materialize(filepath.Clean(e.dir), img); err != nil {
		return 0, err
	}
	db, err := core.OpenDB(img, core.OpenOptions{ReadOnly: "durability check"})
	if err != nil {
		return 0, fmt.Errorf("reopen crash image: %w", err)
	}
	return st.lost(db)
}
