// Package harness reproduces the paper's evaluation (§7): it configures
// machines, runs every scheme on every workload, and regenerates each
// figure of the paper as a structured, renderable table. The cmd/hastm-bench
// binary and the repository's benchmark suite are thin wrappers around this
// package.
package harness

import (
	"fmt"
	"io"
	"strings"
)

// Report is the regenerated form of one paper figure. The json tags are
// the stable `hastm-bench -json` schema.
type Report struct {
	ID     string  `json:"id"`    // "fig16"
	Title  string  `json:"title"` // the paper's caption
	Notes  string  `json:"notes"` // normalisation/baseline explanation
	Tables []Table `json:"tables"`
}

// Table is one group of series within a figure (e.g. one data structure).
type Table struct {
	Name string `json:"name"`
	// ColHeader labels the columns ("cores", "load fraction", ...).
	ColHeader string   `json:"col_header"`
	Cols      []string `json:"cols"`
	Rows      []Row    `json:"rows"`
	// Unit describes cell values ("x relative to STM", "% of cycles").
	Unit string `json:"unit"`
}

// Row is one series (a scheme or a workload).
type Row struct {
	Name  string    `json:"name"`
	Cells []float64 `json:"cells"`
}

// Get returns a cell by table name, row name and column label.
func (r *Report) Get(table, row, col string) (float64, bool) {
	for _, t := range r.Tables {
		if t.Name != table {
			continue
		}
		ci := -1
		for i, c := range t.Cols {
			if c == col {
				ci = i
			}
		}
		if ci < 0 {
			return 0, false
		}
		for _, rw := range t.Rows {
			if rw.Name == row && ci < len(rw.Cells) {
				return rw.Cells[ci], true
			}
		}
	}
	return 0, false
}

// MustGet is Get or panic; for tests and assertions.
func (r *Report) MustGet(table, row, col string) float64 {
	v, ok := r.Get(table, row, col)
	if !ok {
		panic(fmt.Sprintf("%s: no cell (%q, %q, %q)", r.ID, table, row, col))
	}
	return v
}

// Render writes the report as aligned text tables.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	if r.Notes != "" {
		fmt.Fprintf(w, "   %s\n", r.Notes)
	}
	for _, t := range r.Tables {
		fmt.Fprintln(w)
		if t.Name != "" {
			fmt.Fprintf(w, "-- %s", t.Name)
			if t.Unit != "" {
				fmt.Fprintf(w, " (%s)", t.Unit)
			}
			fmt.Fprintln(w, " --")
		}
		// Column widths: values need 10 characters; long headers widen
		// their column.
		nameW := len(t.ColHeader)
		for _, rw := range t.Rows {
			if len(rw.Name) > nameW {
				nameW = len(rw.Name)
			}
		}
		colW := 10
		for _, c := range t.Cols {
			if len(c)+2 > colW {
				colW = len(c) + 2
			}
		}
		fmt.Fprintf(w, "%-*s", nameW+2, t.ColHeader)
		for _, c := range t.Cols {
			fmt.Fprintf(w, "%*s", colW, c)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%s\n", strings.Repeat("-", nameW+2+colW*len(t.Cols)))
		for _, rw := range t.Rows {
			fmt.Fprintf(w, "%-*s", nameW+2, rw.Name)
			for _, v := range rw.Cells {
				fmt.Fprintf(w, "%*.3f", colW, v)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}
