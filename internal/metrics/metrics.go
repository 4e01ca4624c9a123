// Package metrics provides the table-rendering and formatting helpers the
// experiment harness uses to print paper-style result tables.
package metrics

import (
	"fmt"
	"strings"
)

// Table renders fixed-width ASCII tables, the harness' output format.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values: each value is rendered with
// %v, floats with 2 decimals.
func (t *Table) AddRowf(cells ...any) {
	s := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			s[i] = fmt.Sprintf("%.2f", v)
		case float32:
			s[i] = fmt.Sprintf("%.2f", v)
		default:
			s[i] = fmt.Sprintf("%v", c)
		}
	}
	t.AddRow(s...)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavoured markdown (used to generate
// EXPERIMENTS.md).
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.headers, " | ") + " |\n")
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, r := range t.rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return b.String()
}

// FmtBytes renders a byte count in MiB with 1 decimal.
func FmtBytes(b int64) string { return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20)) }

// FmtPct renders a fraction as a percentage.
func FmtPct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
