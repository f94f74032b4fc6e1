package harness

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// docSection returns the text of EXPERIMENTS.md below heading, up to the
// next heading of any level.
func docSection(t *testing.T, doc, heading string) string {
	t.Helper()
	_, section, ok := strings.Cut(doc, "\n"+heading)
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no %q section", heading)
	}
	section, _, _ = strings.Cut(section, "\n#")
	return section
}

// docTables returns a section's markdown tables, each as its header row
// followed by its body rows, cells trimmed of spaces and bold marks.
func docTables(section string) [][][]string {
	var tables [][][]string
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		cols := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cols {
			cols[i] = strings.Trim(cols[i], " *")
		}
		switch {
		case !inTable:
			tables, inTable = append(tables, [][]string{cols}), true
		case !strings.HasPrefix(cols[0], "---"):
			tables[len(tables)-1] = append(tables[len(tables)-1], cols)
		}
	}
	return tables
}

// docCell names one number of EXPERIMENTS.md's scaling tables: a scheme on
// a workload at a core count.
type docCell struct{ workload, scheme, cores string }

// docScalingCells parses the first table of each scaling section of
// EXPERIMENTS.md (Fig 11, Figs 18–20, Figs 21–22) into its cells. A
// table's "workload" and "scheme" columns name a row, its numeric headers
// the core counts.
func docScalingCells(t *testing.T, doc string) map[docCell]string {
	t.Helper()
	cells := map[docCell]string{}
	for _, heading := range []string{"## Figure 11 ", "## Figures 18–20 ", "## Figures 21–22 "} {
		tables := docTables(docSection(t, doc, heading))
		if len(tables) == 0 {
			t.Fatalf("EXPERIMENTS.md %q has no table", heading)
		}
		header := tables[0][0]
		for _, cols := range tables[0][1:] {
			var key docCell
			for i, h := range header {
				switch h {
				case "workload":
					key.workload = cols[i]
				case "scheme":
					key.scheme = cols[i]
				}
			}
			for i, h := range header {
				if _, err := strconv.Atoi(h); err == nil {
					key.cores = h
					cells[key] = cols[i]
				}
			}
		}
	}
	return cells
}

// reportCell names one number of a report table in EXPERIMENTS.md: the
// figure or experiment, and the table, row and column of its report.
type reportCell struct{ id, table, row, col string }

// tableFigures are the paper figures whose EXPERIMENTS.md section ("##
// Figure N ") holds copies of their full-size report tables.
var tableFigures = []string{"fig12", "fig15", "fig16", "fig17"}

// docReportCells parses every table of one section as report id's: the
// first header cell names the report table, the other headers its columns,
// the first cell of a body row the report row.
func docReportCells(t *testing.T, cells map[reportCell]string, id, section string) {
	t.Helper()
	tables := docTables(section)
	if len(tables) == 0 {
		t.Fatalf("EXPERIMENTS.md %s has no table", id)
	}
	for _, tab := range tables {
		for _, cols := range tab[1:] {
			for i := 1; i < len(cols) && i < len(tab[0]); i++ {
				cells[reportCell{id, tab[0][0], cols[0], tab[0][i]}] = cols[i]
			}
		}
	}
}

// docReportTables parses the tables of every tableFigures section and of
// each ext-* section. It also returns the experiments whose section was
// measured at quick size: an ext-* section's first mention of "quick size"
// or "full size" names it; the figures are full size.
func docReportTables(t *testing.T, doc string) (cells map[reportCell]string, quickSize map[string]bool) {
	t.Helper()
	cells, quickSize = map[reportCell]string{}, map[string]bool{}
	for _, id := range tableFigures {
		docReportCells(t, cells, id, docSection(t, doc, "## Figure "+strings.TrimPrefix(id, "fig")+" "))
		quickSize[id] = false
	}
	for _, s := range Extensions() {
		section := docSection(t, doc, "### "+s.ID+" ")
		quick, full := strings.Index(section, "quick size"), strings.Index(section, "full size")
		if quick < 0 && full < 0 {
			t.Fatalf("EXPERIMENTS.md %s names no size (quick size or full size)", s.ID)
		}
		quickSize[s.ID] = quick >= 0 && (full < 0 || quick < full)
		docReportCells(t, cells, s.ID, section)
	}
	return cells, quickSize
}

// TestExperimentsFigureTables holds EXPERIMENTS.md's tables to the reports.
// Every scaling cell Fig 11 and Figs 18–22 print at full size, rendered to
// three decimals, is the number the document gives for its workload, scheme
// and core count, and the document gives no other. The tables share rows
// (Figs 18–20's stm and lock rows are Fig 11's), so each printed cell is
// looked up by what it measures, not by figure. Every cell of a Fig 12,
// 15, 16 or 17 table is its full-size report's, and every cell of an ext-*
// table the report's at the size its section names, each rendered at the
// precision the document prints.
func TestExperimentsFigureTables(t *testing.T) {
	text, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(text)
	scaling := docScalingCells(t, doc)
	tables, quickSize := docReportTables(t, doc)
	figures := []string{"fig11", "fig18", "fig19", "fig20", "fig21", "fig22"}
	var plans []*Plan
	for _, id := range figures {
		s, _ := ByID(id)
		plans = append(plans, s.Plan(DefaultOptions()))
	}
	for _, s := range append(All(), Extensions()...) {
		if quick, ok := quickSize[s.ID]; ok && !quick {
			plans = append(plans, s.Plan(DefaultOptions()))
		}
	}
	reports := Execute(plans, ExecConfig{})
	if failed := FailedCells(plans); len(failed) > 0 {
		t.Fatalf("cell %s/%s failed: %s", failed[0].Figure, failed[0].Label, failed[0].Err)
	}
	seen := map[docCell]bool{}
	for _, rep := range reports[:len(figures)] {
		for _, tab := range rep.Tables {
			if !strings.HasSuffix(tab.ColHeader, "procs") && !strings.HasSuffix(tab.ColHeader, "cores") {
				continue // the abort-cause tables
			}
			for _, row := range tab.Rows {
				for i, v := range row.Cells {
					key := docCell{tab.Name, row.Name, tab.Cols[i]}
					got := fmt.Sprintf("%.3f", v)
					if want, ok := scaling[key]; !ok {
						t.Errorf("%s: %s %s at %s cores prints %s; EXPERIMENTS.md has no such cell", rep.ID, key.workload, key.scheme, key.cores, got)
					} else if want != got {
						t.Errorf("%s: %s %s at %s cores prints %s; EXPERIMENTS.md says %s", rep.ID, key.workload, key.scheme, key.cores, got, want)
					}
					seen[key] = true
				}
			}
		}
	}
	for key, v := range scaling {
		if !seen[key] {
			t.Errorf("EXPERIMENTS.md gives %s %s at %s cores as %s; no figure prints it", key.workload, key.scheme, key.cores, v)
		}
	}

	byID := map[string]*Report{}
	for _, rep := range reports[len(figures):] {
		byID[rep.ID] = rep
	}
	for id, quick := range quickSize {
		if quick {
			byID[id] = quickReport(t, id)
		}
	}
	for key, want := range tables {
		v, ok := byID[key.id].Get(key.table, key.row, key.col)
		if !ok {
			t.Errorf("EXPERIMENTS.md %s gives (%q, %q, %q) as %s; the report has no such cell", key.id, key.table, key.row, key.col, want)
			continue
		}
		_, decimals, _ := strings.Cut(want, ".")
		if got := fmt.Sprintf("%.*f", len(decimals), v); got != want {
			t.Errorf("%s: (%q, %q, %q) prints %s; EXPERIMENTS.md says %s", key.id, key.table, key.row, key.col, got, want)
		}
	}
}
