package client

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// plainResult mirrors Result without its UnmarshalJSON, so encoding/json
// decodes it by reflection: the reference the hand decoder is held to.
type plainResult struct {
	Names    []string `json:"names"`
	Kinds    []string `json:"kinds"`
	Dims     []bool   `json:"dims"`
	Rows     [][]any  `json:"rows"`
	Affected int      `json:"affected"`
	Text     string   `json:"text"`
}

type plainResponse struct {
	Results []plainResult `json:"results"`
	Error   string        `json:"error"`
}

func sameResult(hand *Result, std *plainResult) error {
	if !reflect.DeepEqual(hand.Names, std.Names) || !reflect.DeepEqual(hand.Kinds, std.Kinds) ||
		!reflect.DeepEqual(hand.Dims, std.Dims) || hand.Affected != std.Affected || hand.Text != std.Text {
		return fmt.Errorf("hand %#v\nencoding/json %#v", hand, std)
	}
	return testutil.WireRowsDiff(hand.Kinds, hand.Rows, std.Rows)
}

// FuzzClientDecode feeds arbitrary bytes to the hand decoder, both as
// one result (Result.UnmarshalJSON) and as a whole /query body
// (decodeResponse). It must never panic, and wherever encoding/json
// also accepts the bytes the two must agree, apart from the documented
// extensions (WireRowsDiff).
func FuzzClientDecode(f *testing.F) {
	for _, s := range []string{
		`{"results":[{"names":["x","v"],"kinds":["lng","dbl"],"dims":[true,false],"rows":[[0,1.5],[1,null]]}]}`,
		`{"results":[{"affected":3,"text":"3 rows inserted"}],"error":"boom"}`,
		`{"names":["a"],"kinds":["lng"],"rows":[[9007199254740993],[9223372036854775807],[-9223372036854775808]]}`,
		`{"names":["f"],"kinds":["dbl"],"rows":[["+Inf"],["-Inf"],["NaN"],[-0],[5e-324],[1e-7],[1e+21]]}`,
		`{"names":["s"],"kinds":["str"],"rows":[["NaN"],[" \"\\\/\b\f\n\r\t\u0000"],["\ud83d\ude42\ud800\u00e9"],[""]]}`,
		`{"NAMES":["a"],"names":null,"Kinds":["bit"],"rows":[[true],[false],null,[]],"rendered":{"x":[1,{}]}}`,
		`{"names":["a","b"],"names":[null],"dims":[true],"dims":[null,false],"affected":1,"affected":null}`,
		`{"results":[{"text":"a"}],"results":[{"affected":2}, null]}`,
		`{"rows":[[1e400]]}`,
		`{"rows":[[{"a":1}]]}`,
		`{"affected":1.5}`,
		"{\"text\":\"\xff\xfe\"}",
		`null`,
		` {} `,
		`[`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var hand Result
		herr := hand.UnmarshalJSON(data)
		_ = hand.String()
		var std plainResult
		if serr := json.Unmarshal(data, &std); herr == nil && serr == nil {
			if err := sameResult(&hand, &std); err != nil {
				t.Fatalf("result decoders disagree on %q: %v", data, err)
			}
		}

		results, msg, herr := decodeResponse(data)
		var stdResp plainResponse
		if serr := json.Unmarshal(data, &stdResp); herr == nil && serr == nil {
			if msg != stdResp.Error || len(results) != len(stdResp.Results) || (results == nil) != (stdResp.Results == nil) {
				t.Fatalf("response decoders disagree on %q: %d results %q, encoding/json %d %q",
					data, len(results), msg, len(stdResp.Results), stdResp.Error)
			}
			for i := range results {
				if err := sameResult(&results[i], &stdResp.Results[i]); err != nil {
					t.Fatalf("response decoders disagree on %q, result %d: %v", data, i, err)
				}
			}
		}
	})
}

// TestOversizedResponse lowers the client's body limit and checks that
// an answer over it fails with an error naming the limit and no partial
// results, whether or not the server sent a Content-Length.
func TestOversizedResponse(t *testing.T) {
	defer func(old int64) { maxResponse = old }(maxResponse)
	maxResponse = 1000
	rows := strings.Repeat("[1],", 300)
	body := `{"results":[{"names":["a"],"kinds":["lng"],"rows":[` + rows + `[1]]}]}`
	small := `{"results":[{"names":["a"],"kinds":["lng"],"rows":[[1]]}]}`
	for _, chunked := range []bool{false, true} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			req, _ := io.ReadAll(r.Body)
			out := body
			if strings.Contains(string(req), "LIMIT 1") {
				out = small
			}
			if chunked {
				_, _ = w.Write([]byte(out[:10]))
				w.(http.Flusher).Flush() // no Content-Length
				_, _ = w.Write([]byte(out[10:]))
				return
			}
			w.Header().Set("Content-Length", fmt.Sprint(len(out)))
			_, _ = w.Write([]byte(out))
		}))
		c := New(strings.TrimPrefix(ts.URL, "http://"))
		rs, err := c.Exec("SELECT a FROM t")
		if err == nil || !strings.Contains(err.Error(), "limit of 1000 bytes") || rs != nil {
			t.Errorf("chunked=%v: oversized answer gave %d results, %v; want a limit error", chunked, len(rs), err)
		}
		if r, err := c.Query("SELECT a FROM t LIMIT 1"); err != nil || len(r.Rows) != 1 {
			t.Errorf("chunked=%v: small answer: %v, %v", chunked, r, err)
		}
		ts.Close()
	}
}

// TestDecodeRefusesForeignSpellings: members the server never sends in
// that form are refused, not merged or folded; unknown members are
// skipped.
func TestDecodeRefusesForeignSpellings(t *testing.T) {
	for _, body := range []string{
		`{"results":[{"names":["a"],"names":["b"]}]}`,
		`{"results":[{"NAMES":["a"]}]}`,
		`{"results":[{"text":"a","Text":"b"}]}`,
		`{"results":[],"results":[]}`,
		`{"Error":"boom"}`,
		`{"error":"a","error":"b"}`,
	} {
		if _, _, err := decodeResponse([]byte(body)); err == nil {
			t.Errorf("%s: decoded, want an error", body)
		}
	}
	rs, msg, err := decodeResponse([]byte(`{"results":[{"rendered":"x","names":["a"],"extra":{"k":[1,null]}}],"version":2,"error":"e"}`))
	if err != nil || len(rs) != 1 || !reflect.DeepEqual(rs[0].Names, []string{"a"}) || msg != "e" {
		t.Errorf("unknown members: %+v, %q, %v", rs, msg, err)
	}
}
