package render

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// fmtTable is the layout as the engine wrote it with fmt before Table
// existed: widths in bytes, padding by fmt's %-*s, which counts runes.
func fmtTable(names []string, dims []bool, cells [][]string) string {
	var sb strings.Builder
	widths := make([]int, len(names))
	for c, name := range names {
		if c < len(dims) && dims[c] {
			names[c] = "[" + name + "]"
		}
		widths[c] = len(names[c])
		for _, row := range cells {
			widths[c] = max(widths[c], len(row[c]))
		}
	}
	for c, name := range names {
		if c > 0 {
			sb.WriteString(" | ")
		}
		fmt.Fprintf(&sb, "%-*s", widths[c], name)
	}
	sb.WriteString("\n")
	for c := range names {
		if c > 0 {
			sb.WriteString("-+-")
		}
		sb.WriteString(strings.Repeat("-", widths[c]))
	}
	sb.WriteString("\n")
	for _, row := range cells {
		for c := range names {
			if c > 0 {
				sb.WriteString(" | ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[c], row[c])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestTableMatchesFmt checks Table against the fmt layout on random
// tables with multi-byte and invalid UTF-8 text.
func TestTableMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := []string{"", "a", "null", "-1.5e+21", "é", "日本語", "🙂x", "\xff\xfe", "tab\there", "[x]"}
	for k := 0; k < 200; k++ {
		ncols, nrows := rng.Intn(5), rng.Intn(6)
		names := make([]string, ncols)
		dims := make([]bool, rng.Intn(ncols+1))
		cells := make([][]string, nrows)
		for c := range names {
			names[c] = words[rng.Intn(len(words))]
		}
		for c := range dims {
			dims[c] = rng.Intn(2) == 0
		}
		for i := range cells {
			cells[i] = make([]string, ncols)
			for c := range cells[i] {
				cells[i][c] = words[rng.Intn(len(words))] + words[rng.Intn(len(words))]
			}
		}
		got := string(Table([]byte("prefix:"), names, dims, nrows, func(c int, out *Cells) {
			for _, row := range cells {
				out.Buf = append(out.Buf, row[c]...)
				out.End()
			}
		}))
		want := "prefix:" + fmtTable(append([]string(nil), names...), dims, cells)
		if got != want {
			t.Fatalf("names %q dims %v cells %q:\n--- Table ---\n%s--- fmt ---\n%s", names, dims, cells, got, want)
		}
	}
}
