package main

import (
	"bytes"
	"strings"
	"testing"

	"implicitlayout/bench"
)

// tinyArgs runs every experiment in well under a second.
var tinyArgs = []string{
	"-minlog", "8", "-maxlog", "9", "-trials", "1", "-maxp", "2",
	"-q", "1024", "-minlogq", "8", "-maxlogq", "9", "-m", "256", "-blk", "4",
}

// blocks splits output into its tables: runs of lines between blank lines.
func blocks(out string) [][]string {
	var bs [][]string
	for _, b := range strings.Split(strings.TrimSpace(out), "\n\n") {
		bs = append(bs, strings.Split(b, "\n"))
	}
	return bs
}

// TestEveryExperiment runs each experiment through run, as text and as
// CSV, and checks that it prints at least one table with a header and
// rows.
func TestEveryExperiment(t *testing.T) {
	for _, e := range bench.Experiments() {
		for _, csv := range []bool{false, true} {
			args := append([]string(nil), tinyArgs...)
			if csv {
				args = append(args, "-csv")
			}
			var stdout, stderr bytes.Buffer
			if code := run(append(args, e.Name), &stdout, &stderr); code != 0 {
				t.Fatalf("%s csv=%v: exit %d: %s", e.Name, csv, code, stderr.String())
			}
			bs := blocks(stdout.String())
			if len(bs) == 0 {
				t.Fatalf("%s csv=%v: no table", e.Name, csv)
			}
			for _, b := range bs {
				if csv {
					checkCSV(t, e.Name, b)
				} else if !strings.HasPrefix(b[0], "== ") || len(b) < 3 {
					// Title, header and at least one row.
					t.Fatalf("%s: malformed table:\n%s", e.Name, strings.Join(b, "\n"))
				}
			}
		}
	}
}

// checkCSV fails unless b is a header and at least one row, all with the
// same number of fields.
func checkCSV(t *testing.T, name string, b []string) {
	t.Helper()
	if len(b) < 2 {
		t.Fatalf("%s: CSV table without rows:\n%s", name, strings.Join(b, "\n"))
	}
	for _, line := range b[1:] {
		if strings.Count(line, ",") != strings.Count(b[0], ",") {
			t.Fatalf("%s: CSV row %q does not match header %q", name, line, b[0])
		}
	}
}

// TestAllRunsEveryExperiment: "all" prints every experiment's tables.
func TestAllRunsEveryExperiment(t *testing.T) {
	var all, each, stderr bytes.Buffer
	if code := run(append(tinyArgs, "-csv", "all"), &all, &stderr); code != 0 {
		t.Fatalf("all: exit %d: %s", code, stderr.String())
	}
	for _, e := range bench.Experiments() {
		if code := run(append(tinyArgs, "-csv", e.Name), &each, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", e.Name, code, stderr.String())
		}
	}
	if got, want := len(blocks(all.String())), len(blocks(each.String())); got != want {
		t.Fatalf("all printed %d tables, the experiments one by one %d", got, want)
	}
}

// TestUsageErrors: a missing or unknown experiment, a bad flag or a bad
// value exits 2 with a paperbench: line on stderr and prints no table.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-trials", "1"},
		{"fig6.0"},
		{"fig6.1", "nosuch"},
		{"-nosuchflag", "fig6.1"},
		{"-b", "0", "fig6.1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%q: exit %d, want 2", args, code)
		}
		if !strings.HasPrefix(stderr.String(), "paperbench: ") {
			t.Fatalf("%q: stderr %q lacks the paperbench: prefix", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Fatalf("%q: printed %q", args, stdout.String())
		}
	}
}
