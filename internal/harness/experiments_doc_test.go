package harness

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// docCell names one number of EXPERIMENTS.md's scaling tables: a scheme on
// a workload at a core count.
type docCell struct{ workload, scheme, cores string }

// docScalingCells parses the first table of each scaling section of
// EXPERIMENTS.md (Fig 11, Figs 18–20, Figs 21–22) into its cells, bold
// marks stripped. A table's "workload" and "scheme" columns name a row, its
// numeric headers the core counts.
func docScalingCells(t *testing.T) map[docCell]string {
	t.Helper()
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	cells := map[docCell]string{}
	for _, heading := range []string{"## Figure 11 ", "## Figures 18–20 ", "## Figures 21–22 "} {
		_, section, ok := strings.Cut(string(doc), "\n"+heading)
		if !ok {
			t.Fatalf("EXPERIMENTS.md has no %q section", heading)
		}
		section, _, _ = strings.Cut(section, "\n## ")
		var header []string
		for _, line := range strings.Split(section, "\n") {
			if !strings.HasPrefix(line, "|") {
				if header != nil {
					break // the section's first table ended
				}
				continue
			}
			cols := strings.Split(strings.Trim(line, "|"), "|")
			for i := range cols {
				cols[i] = strings.Trim(cols[i], " *")
			}
			switch {
			case header == nil:
				header = cols
			case strings.HasPrefix(cols[0], "---"):
			default:
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
		if header == nil {
			t.Fatalf("EXPERIMENTS.md %q has no table", heading)
		}
	}
	return cells
}

// TestExperimentsFigureTables holds EXPERIMENTS.md's Fig 11 and Figs 18–22
// tables to the full-size report: every scaling cell those figures print,
// rendered to three decimals, is the number the document gives for its
// workload, scheme and core count, and the document gives no other. The
// tables share rows (Figs 18–20's stm and lock rows are Fig 11's), so
// each printed cell is looked up by what it measures, not by figure.
func TestExperimentsFigureTables(t *testing.T) {
	doc := docScalingCells(t)
	var plans []*Plan
	for _, id := range []string{"fig11", "fig18", "fig19", "fig20", "fig21", "fig22"} {
		s, _ := ByID(id)
		plans = append(plans, s.Plan(DefaultOptions()))
	}
	reports := Execute(plans, ExecConfig{})
	if failed := FailedCells(plans); len(failed) > 0 {
		t.Fatalf("cell %s/%s failed: %s", failed[0].Figure, failed[0].Label, failed[0].Err)
	}
	seen := map[docCell]bool{}
	for _, rep := range reports {
		for _, tab := range rep.Tables {
			if !strings.HasSuffix(tab.ColHeader, "procs") && !strings.HasSuffix(tab.ColHeader, "cores") {
				continue // the abort-cause tables
			}
			for _, row := range tab.Rows {
				for i, v := range row.Cells {
					key := docCell{tab.Name, row.Name, tab.Cols[i]}
					got := fmt.Sprintf("%.3f", v)
					if want, ok := doc[key]; !ok {
						t.Errorf("%s: %s %s at %s cores prints %s; EXPERIMENTS.md has no such cell", rep.ID, key.workload, key.scheme, key.cores, got)
					} else if want != got {
						t.Errorf("%s: %s %s at %s cores prints %s; EXPERIMENTS.md says %s", rep.ID, key.workload, key.scheme, key.cores, got, want)
					}
					seen[key] = true
				}
			}
		}
	}
	for key, v := range doc {
		if !seen[key] {
			t.Errorf("EXPERIMENTS.md gives %s %s at %s cores as %s; no figure prints it", key.workload, key.scheme, key.cores, v)
		}
	}
}
