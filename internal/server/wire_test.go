package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/server/client"
	"repro/internal/testutil"
	"repro/internal/types"
)

// plainResult mirrors client.Result without its UnmarshalJSON, so
// encoding/json decodes it by reflection: the reference the hand
// decoder is held to.
type plainResult struct {
	Names    []string `json:"names"`
	Kinds    []string `json:"kinds"`
	Dims     []bool   `json:"dims"`
	Rows     [][]any  `json:"rows"`
	Affected int      `json:"affected"`
	Text     string   `json:"text"`
}

// Values every generated column draws from besides random ones.
var (
	wireInts = []int64{0, -1, 1, 255, 1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64}

	wireFloats = []float64{0, math.Copysign(0, -1), 5e-324, 2.2250738585072009e-308,
		1e-7, 9.999999999999999e-7, 1e-6, 1e20, 9.999999999999999e20, 1e21, -1e21,
		0.1, -1.5, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}

	wireStrs = []string{"", `"`, `\`, `\"`, "\x00\x01\x1f\x7f", "\b\f\n\r\t", "\u2028", "\u2029",
		"é", "日本語", "<a href=\"x\">&amp;</a>", "null", "+Inf", "NaN", "🙂", "\ufffd", " pad "}
)

// randomColumn builds an n-row column of the given kind whose cells are
// drawn from the lists above and from the generator, with NULLs at
// nullRate.
func randomColumn(rng *rand.Rand, kind types.Kind, n int, nullRate float64) *bat.BAT {
	var b *bat.BAT
	switch kind {
	case types.KindVoid:
		return bat.NewVoid(types.OID(rng.Intn(1000)), n)
	case types.KindInt, types.KindOID:
		vals := make([]int64, n)
		for i := range vals {
			if rng.Intn(4) == 0 {
				vals[i] = wireInts[rng.Intn(len(wireInts))]
			} else {
				vals[i] = rng.Int63() >> rng.Intn(63)
			}
		}
		b = bat.FromIntsOfKind(vals, kind)
	case types.KindFloat:
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(3) {
			case 0:
				vals[i] = wireFloats[rng.Intn(len(wireFloats))]
			case 1:
				vals[i] = math.Float64frombits(rng.Uint64())
			default:
				vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			}
		}
		b = bat.FromFloats(vals)
	case types.KindBool:
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = rng.Intn(2) == 0
		}
		b = bat.FromBools(vals)
	case types.KindStr:
		vals := make([]string, n)
		for i := range vals {
			if rng.Intn(2) == 0 {
				vals[i] = wireStrs[rng.Intn(len(wireStrs))]
			} else {
				var sb strings.Builder
				for k := rng.Intn(12); k > 0; k-- {
					sb.WriteString(wireStrs[rng.Intn(len(wireStrs))])
					sb.WriteRune(rune(rng.Intn(0x3000)))
				}
				vals[i] = strings.ToValidUTF8(sb.String(), "?")
			}
		}
		b = bat.FromStrings(vals)
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < nullRate {
			b.SetNull(i, true)
		}
	}
	return b
}

// encodedColumns returns >64K-row columns whose slabs come out RLE,
// dictionary, FOR and delta encoded, with NULLs sprinkled over some.
func encodedColumns(rng *rand.Rand, n int) ([]*bat.BAT, []types.Kind) {
	rle, dict, forCol, delta := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	strs := make([]string, n)
	for i := 0; i < n; i++ {
		rle[i] = int64(i / 5000)
		dict[i] = []int64{-7, 1 << 40, 3, 1<<53 + 1}[rng.Intn(4)]
		forCol[i] = 1<<50 + rng.Int63n(1000)
		delta[i] = int64(i)*1000 + rng.Int63n(3)
		strs[i] = wireStrs[rng.Intn(4)]
	}
	cols := []*bat.BAT{
		bat.EncodeAuto(bat.FromInts(rle)),
		bat.EncodeAuto(bat.FromInts(dict)),
		bat.EncodeAuto(bat.FromIntsOfKind(forCol, types.KindOID)),
		bat.EncodeAuto(bat.FromInts(delta)),
		bat.EncodeAuto(bat.FromStrings(strs)),
		bat.NewVoid(0, n),
		randomColumn(rng, types.KindFloat, n, 0.05),
	}
	for i := 0; i < n; i += 1 + rng.Intn(9000) {
		cols[1].SetNull(i, true)
	}
	kinds := []types.Kind{types.KindInt, types.KindInt, types.KindOID, types.KindInt, types.KindStr, types.KindVoid, types.KindFloat}
	return cols, kinds
}

// randomResults returns the results the round-trip test encodes: random
// shapes of every kind, status results, and one large encoded result.
func randomResults(t *testing.T, rng *rand.Rand) []*core.Result {
	kinds := []types.Kind{types.KindInt, types.KindOID, types.KindVoid, types.KindFloat, types.KindBool, types.KindStr}
	var out []*core.Result
	for k := 0; k < 60; k++ {
		n := []int{0, 1, 2, 7, 100, 1000}[rng.Intn(6)]
		r := &core.Result{}
		for c := rng.Intn(5) + 1; c > 0; c-- {
			kind := kinds[rng.Intn(len(kinds))]
			r.Names = append(r.Names, wireStrs[rng.Intn(len(wireStrs))]+string(rune('a'+c)))
			r.Dims = append(r.Dims, rng.Intn(3) == 0)
			if rng.Intn(8) == 0 { // a column of NULLs, as SELECT NULL gives
				r.Kinds = append(r.Kinds, types.KindVoid)
				r.Cols = append(r.Cols, randomColumn(rng, types.KindInt, n, 1))
				continue
			}
			r.Kinds = append(r.Kinds, kind)
			r.Cols = append(r.Cols, randomColumn(rng, kind, n, 0.1))
		}
		out = append(out, r)
	}
	out = append(out,
		&core.Result{Text: "3 rows inserted", Affected: 3},
		&core.Result{Text: "plan:\n\t\"quoted\" \\   é"},
		&core.Result{},
	)

	n := 2*bat.SlabRows + 1234
	cols, ks := encodedColumns(rng, n)
	big := &core.Result{Cols: cols, Kinds: ks}
	seen := map[bat.Encoding]bool{}
	for i, c := range cols {
		big.Names = append(big.Names, string(rune('p'+i)))
		big.Dims = append(big.Dims, i == 5)
		for _, e := range c.SlabEncodings() {
			seen[e] = true
		}
	}
	for _, e := range []bat.Encoding{bat.EncRLE, bat.EncDict, bat.EncFOR, bat.EncDelta} {
		if !seen[e] {
			t.Fatalf("large result has no %v slab; encodings seen: %v", e, seen)
		}
	}
	return append(out, big)
}

// TestWireRoundTrip is the differential test of the /query wire path:
// for every random result the hand encoder's output is valid JSON, the
// client's hand decoder agrees with encoding/json on it (apart from the
// two documented extensions), and the client renders it byte for byte
// as the engine does.
func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	results := randomResults(t, rng)
	body := appendResponse(nil, results, errString("boom: \"quoted\"\n"))
	if !json.Valid(body) {
		t.Fatalf("encoder output is not valid JSON:\n%.2000s", body)
	}
	var env struct {
		Results []json.RawMessage `json:"results"`
		Error   string            `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Results) != len(results) || env.Error != "boom: \"quoted\"\n" {
		t.Fatalf("envelope: %d results, error %q", len(env.Results), env.Error)
	}
	for i, raw := range env.Results {
		r := results[i]
		var hand client.Result
		if err := json.Unmarshal(raw, &hand); err != nil {
			t.Fatalf("result %d: hand decoder: %v", i, err)
		}
		var std plainResult
		if err := json.Unmarshal(raw, &std); err != nil {
			t.Fatalf("result %d: encoding/json: %v", i, err)
		}
		if !reflect.DeepEqual(hand.Names, std.Names) || !reflect.DeepEqual(hand.Kinds, std.Kinds) ||
			!reflect.DeepEqual(hand.Dims, std.Dims) || hand.Affected != std.Affected || hand.Text != std.Text {
			t.Fatalf("result %d: hand %+v\nencoding/json %+v", i, hand, std)
		}
		if err := testutil.WireRowsDiff(hand.Kinds, hand.Rows, std.Rows); err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if got, want := hand.String(), r.String(); got != want {
			t.Fatalf("result %d: client rendering differs:\n--- client ---\n%.3000s\n--- engine ---\n%.3000s", i, got, want)
		}
	}

	// The whole body through Client.Exec, as a server sends it.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusUnprocessableEntity)
		_, _ = w.Write(body)
	}))
	defer ts.Close()
	rs, err := client.New(strings.TrimPrefix(ts.URL, "http://")).Exec("SELECT 1")
	if err == nil || err.Error() != env.Error || len(rs) != len(results) {
		t.Fatalf("Exec: %d results, %v", len(rs), err)
	}
	for i := range rs {
		if got, want := rs[i].String(), results[i].String(); got != want {
			t.Fatalf("result %d: Exec renders differently", i)
		}
	}
}

type errString string

func (e errString) Error() string { return string(e) }

// liveAndEmbedded runs one statement through a live sciqld and through
// the embedded engine behind it, and checks that the client renders the
// answer exactly as the engine does.
func liveAndEmbedded(t *testing.T, db *core.DB, c *client.Client, stmt string) *client.Result {
	t.Helper()
	r, err := c.Query(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	want, err := db.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != want.String() {
		t.Fatalf("%s: client renders\n%s\nengine renders\n%s", stmt, got, want.String())
	}
	return r
}

// TestNonFiniteFloatsOverServer: ±Inf and NaN, which JSON numbers cannot
// carry, arrive as float64 cells rather than as an empty 200.
func TestNonFiniteFloatsOverServer(t *testing.T) {
	srv, c := startServer(t, Config{})
	db := srv.db
	for stmt, want := range map[string]float64{
		`SELECT 1e308 * 10.0`:          math.Inf(1),
		`SELECT -1e308 * 10.0`:         math.Inf(-1),
		`SELECT CAST('NaN' AS DOUBLE)`: math.NaN(),
	} {
		r := liveAndEmbedded(t, db, c, stmt)
		got, ok := r.Rows[0][0].(float64)
		if !ok || math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("%s: cell %#v, want %v", stmt, r.Rows[0][0], want)
		}
	}
	// A string column holding the same text stays a string.
	r := liveAndEmbedded(t, db, c, `SELECT 'NaN', CAST('NaN' AS DOUBLE)`)
	if s, ok := r.Rows[0][0].(string); !ok || s != "NaN" {
		t.Fatalf("string cell %#v, want \"NaN\"", r.Rows[0][0])
	}
}

// TestLargeIntsOverServer: INT values no float64 holds exactly arrive as
// exact int64 cells; the rest stay float64.
func TestLargeIntsOverServer(t *testing.T) {
	srv, c := startServer(t, Config{})
	db := srv.db
	for stmt, want := range map[string]any{
		`SELECT 9007199254740993`:         int64(1<<53 + 1),
		`SELECT 9223372036854775807`:      int64(math.MaxInt64),
		`SELECT -9223372036854775807 - 1`: float64(math.MinInt64), // -2^63 is a float64
		`SELECT 9007199254740992`:         float64(1 << 53),
		`SELECT -9007199254740993`:        int64(-(1<<53 + 1)),
	} {
		r := liveAndEmbedded(t, db, c, stmt)
		if r.Rows[0][0] != want {
			t.Fatalf("%s: cell %#v, want %#v", stmt, r.Rows[0][0], want)
		}
	}
	// Beyond 2^53 a FLOAT cell is still the float64 it was.
	r := liveAndEmbedded(t, db, c, `SELECT CAST(9007199254740993 AS DOUBLE)`)
	if r.Rows[0][0] != float64(1<<53) {
		t.Fatalf("float cell %#v", r.Rows[0][0])
	}
}

// TestFullDumpOverServer: a 1700×1700 dump (2.89M rows, over 40 MB of
// JSON) arrives complete through client.Query.
func TestFullDumpOverServer(t *testing.T) {
	if testing.Short() {
		t.Skip("2.89M-row dump")
	}
	const side = 1700
	srv, c := startServer(t, Config{})
	if _, err := srv.db.Exec(`CREATE ARRAY g (x INT DIMENSION[0:1:1700], y INT DIMENSION[0:1:1700], v INT DEFAULT 0); UPDATE g SET v = x * 3 + y`); err != nil {
		t.Fatal(err)
	}
	r, err := c.Query(`SELECT x, y, v FROM g`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != side*side {
		t.Fatalf("%d rows, want %d", len(r.Rows), side*side)
	}
	for i, row := range r.Rows {
		x, y := float64(i/side), float64(i%side)
		if row[0] != x || row[1] != y || row[2] != x*3+y {
			t.Fatalf("row %d = %v, want [%v %v %v]", i, row, x, y, x*3+y)
		}
	}
}

// TestWireMixedSlabEncodings: in a column whose slabs alternate between
// plain (random values encoding cannot halve) and encoded, decoding an
// encoded slab must not write over the stored values of a plain one.
// The wire encoder and the engine's renderer must both read the column
// exactly as they read an unencoded copy, and leave it unchanged.
func TestWireMixedSlabEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4 * bat.SlabRows
	ints, floats, strs := make([]int64, n), make([]float64, n), make([]string, n)
	for i := 0; i < n; i++ {
		switch i / bat.SlabRows {
		case 0, 2: // stays plain
			ints[i] = rng.Int63()
			floats[i] = math.Float64frombits(rng.Uint64())
			strs[i] = strconv.FormatUint(rng.Uint64(), 36)
		case 1: // RLE / dictionary
			ints[i], floats[i], strs[i] = 7, 1.5, wireStrs[rng.Intn(4)]
		case 3: // frame of reference / dictionary
			ints[i], floats[i], strs[i] = 1<<50+rng.Int63n(1000), -2.25, wireStrs[rng.Intn(4)]
		}
	}
	names, kinds := []string{"i", "f", "s"}, []types.Kind{types.KindInt, types.KindFloat, types.KindStr}
	plain := &core.Result{Names: names, Kinds: kinds,
		Cols: []*bat.BAT{bat.FromInts(ints), bat.FromFloats(floats), bat.FromStrings(strs)}}
	// Each check gets its own encoded copy: a column's decoded view is
	// cached on first use, so it must be taken after the read under test.
	encoded := func() *core.Result {
		enc := &core.Result{Names: names, Kinds: kinds}
		for _, b := range plain.Cols {
			e := bat.EncodeAuto(b)
			if got := e.SlabEncodings(); got[0] != bat.EncPlain || got[1] == bat.EncPlain || got[2] != bat.EncPlain || got[3] == bat.EncPlain {
				t.Fatalf("%v column slabs %v, want plain and encoded alternating", b.Kind(), got)
			}
			enc.Cols = append(enc.Cols, e)
		}
		return enc
	}
	unchanged := func(enc *core.Result, after string) {
		t.Helper()
		gotInts, gotFloats, gotStrs := enc.Cols[0].DecodedInts(), enc.Cols[1].DecodedFloats(), enc.Cols[2].DecodedStrs()
		for i := 0; i < n; i++ {
			if gotInts[i] != ints[i] || math.Float64bits(gotFloats[i]) != math.Float64bits(floats[i]) || gotStrs[i] != strs[i] {
				t.Fatalf("after %s, row %d holds %d, %v, %q; stored %d, %v, %q",
					after, i, gotInts[i], gotFloats[i], gotStrs[i], ints[i], floats[i], strs[i])
			}
		}
	}
	enc := encoded()
	if got, want := appendResponse(nil, []*core.Result{enc}, nil), appendResponse(nil, []*core.Result{plain}, nil); !bytes.Equal(got, want) {
		t.Errorf("wire body of the encoded columns differs from the plain copy's")
	}
	unchanged(enc, "encoding the wire body")
	enc = encoded()
	if enc.String() != plain.String() {
		t.Errorf("rendering of the encoded columns differs from the plain copy's")
	}
	unchanged(enc, "rendering")
}
