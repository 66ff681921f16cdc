// Package metrics is nxgraph's instrumentation. Registry declares the
// counters, gauges and histograms nxserve publishes on /metrics and
// renders them in the Prometheus text format, which ValidateExposition
// checks. Table, StepTable, MTEPS and the byte-size helpers format the
// numbers the CLIs print.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// MTEPS returns millions of traversed edges per second (the Fig 11
// metric).
func MTEPS(edges int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(edges) / 1e6 / elapsed.Seconds()
}

// Table accumulates rows and renders a fixed-width text table.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v, floats with 4
// significant digits.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case time.Duration:
			row[i] = v.Round(time.Millisecond).String()
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// ParseBytes parses human byte sizes — "512MiB", "1.5g", "64kb" or a
// plain count. The inverse of Bytes, shared by the CLI tools.
// Unrecognized suffixes are an error, never a silent misparse.
func ParseBytes(s string) (int64, error) {
	if s == "" || s == "0" {
		return 0, nil
	}
	u := strings.ToLower(s)
	mult := int64(1)
	for _, suf := range []struct {
		s string
		m int64
	}{
		{"gib", 1 << 30}, {"gb", 1 << 30}, {"g", 1 << 30},
		{"mib", 1 << 20}, {"mb", 1 << 20}, {"m", 1 << 20},
		{"kib", 1 << 10}, {"kb", 1 << 10}, {"k", 1 << 10},
		{"b", 1}, // must come last: every other suffix ends in 'b'
	} {
		if strings.HasSuffix(u, suf.s) {
			u, mult = u[:len(u)-len(suf.s)], suf.m
			break
		}
	}
	v, err := strconv.ParseFloat(u, 64)
	if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad size %q", s)
	}
	b := v * float64(mult)
	if b >= math.MaxInt64 {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	return int64(b), nil
}

// Bytes formats a byte count human-readably.
func Bytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
