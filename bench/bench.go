// Package bench is the experiment harness: one runner per table and
// figure of the paper's evaluation (Chapter 6 and Table 1.1). Each runner
// executes the corresponding workload on this machine (or on the PEM/GPU
// simulators) and returns a Table whose rows mirror the series the paper
// plots; cmd/* print them.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is a rectangular result set with a title and column headers.
type Table struct {
	// Title names the experiment, e.g. "fig6.1 permute time, P=1".
	Title string
	// Note carries methodology remarks shown under the title.
	Note string
	// Header labels the columns.
	Header []string
	// Rows holds the data, already formatted.
	Rows [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint writes the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
}

// timeIt runs f trials times after one warmup and returns the mean
// duration. prep runs before each trial, outside the timed region.
func timeIt(trials int, prep func(), f func()) time.Duration {
	if trials < 1 {
		trials = 1
	}
	prep()
	f() // warmup
	var total time.Duration
	for i := 0; i < trials; i++ {
		prep()
		start := time.Now()
		f()
		total += time.Since(start)
	}
	return total / time.Duration(trials)
}

// secs formats a duration in seconds with 4 significant digits.
func secs(d time.Duration) string { return fmt.Sprintf("%.4g", d.Seconds()) }

// ratio formats a float with 3 decimals.
func ratio(x float64) string { return fmt.Sprintf("%.3f", x) }
