// Package report renders experiment results as TSV or aligned ASCII tables
// for the command-line tools and EXPERIMENTS.md.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title string
	Cols  []string
	Rows  [][]string
}

// New creates a table with the given title and column headers.
func New(title string, cols ...string) *Table {
	return &Table{Title: title, Cols: cols}
}

// Add appends a row; cells are formatted with %v, floats with %.3g trimmed.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// WriteTSV emits the table as tab-separated values with a # title line.
func (t *Table) WriteTSV(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, strings.Join(t.Cols, "\t")); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(r, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// WriteASCII emits the table with aligned columns.
func (t *Table) WriteASCII(w io.Writer) error {
	width := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		width[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", width[i]-len(c)))
			}
		}
		_, err := fmt.Fprintln(w, b.String())
		return err
	}
	if err := line(t.Cols); err != nil {
		return err
	}
	rule := make([]string, len(t.Cols))
	for i := range rule {
		rule[i] = strings.Repeat("-", width[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := line(r); err != nil {
			return err
		}
	}
	return nil
}

// Emit writes each table, as TSV or as aligned ASCII, followed by a blank
// line: the byte stream every command prints, and the what-if service and
// the timeline golden embed.
func Emit(w io.Writer, tsv bool, tables ...*Table) error {
	for _, t := range tables {
		var err error
		if tsv {
			err = t.WriteTSV(w)
		} else {
			err = t.WriteASCII(w)
		}
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// Seconds formats a float seconds value compactly.
func Seconds(s float64) string { return trimFloat(s) }
