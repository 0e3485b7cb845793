// Command paperbench regenerates the paper's evaluation: one experiment
// per figure of Chapter 6 and per Table 1.1, plus the Section 4.2 gather
// ablation, each printed as aligned tables or CSV. Run it with no
// arguments for the list of experiments.
//
// Usage:
//
//	paperbench [flags] experiment...
//	paperbench -minlog 12 -maxlog 16 -trials 1 fig6.1 fig6.5
//	paperbench -csv all
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"implicitlayout/bench"
	"implicitlayout/perm"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the named experiments in order and prints their
// tables to stdout. It returns the exit status: 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	var cfg bench.Config
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.IntVar(&cfg.MinLog, "minlog", 0, "smallest size exponent of the N sweeps (0 = the experiment's default)")
	fs.IntVar(&cfg.MaxLog, "maxlog", 0, "largest size exponent; the fixed-size figures run at N = 2^maxlog (0 = the experiment's default)")
	fs.IntVar(&cfg.P, "p", 0, "workers of fig6.2 and fig6.7, simulated processors of table1.1 (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.MaxP, "maxp", 2*runtime.NumCPU(), "largest worker count of the fig6.3 and fig6.4 sweeps")
	fs.IntVar(&cfg.B, "b", perm.DefaultB, "B-tree node capacity on the CPU (the GPU figures use 32)")
	fs.IntVar(&cfg.Trials, "trials", 3, "timed repetitions per cell")
	fs.BoolVar(&cfg.SoftwareRev, "softrev", false, "use software bit reversal in every CPU permutation (the paper's CPU T_REV2 model)")
	fs.IntVar(&cfg.Q, "q", 1_000_000, "queries per fig6.5 cell, and the batch the break-even figures measure per-query cost on")
	fs.IntVar(&cfg.MinLogQ, "minlogq", 16, "smallest query count exponent of the break-even tables")
	fs.IntVar(&cfg.MaxLogQ, "maxlogq", 26, "largest query count exponent of the break-even tables")
	fs.Int64Var(&cfg.Seed, "seed", 1, "query generator seed")
	fs.IntVar(&cfg.PEM.M, "m", bench.DefaultPEM.M, "simulated PEM cache size per processor, in words")
	fs.IntVar(&cfg.PEM.B, "blk", bench.DefaultPEM.B, "simulated PEM block size, in words")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")

	usage := func() {
		fmt.Fprintln(stderr, "usage: paperbench [flags] experiment... (or all)\n\nexperiments:")
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stderr, "  %-9s %s (default -minlog %d -maxlog %d)\n", e.Name, e.Doc, e.MinLog, e.MaxLog)
		}
		fmt.Fprintln(stderr, "\nflags:")
		fs.SetOutput(stderr)
		fs.PrintDefaults()
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "paperbench: "+format+"\n", a...)
		usage()
		return 2
	}
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		usage()
		return 0
	} else if err != nil {
		return fail("%v", err)
	}
	if fs.NArg() == 0 {
		return fail("no experiment named")
	}
	if cfg.B < 1 || cfg.Q < 1 || cfg.MaxP < 1 || cfg.PEM.M < 1 || cfg.PEM.B < 1 {
		return fail("-b, -q, -maxp, -m and -blk must be at least 1")
	}
	byName := map[string]bench.Experiment{}
	for _, e := range bench.Experiments() {
		byName[e.Name] = e
	}
	var todo []bench.Experiment
	for _, name := range fs.Args() {
		e, ok := byName[name]
		switch {
		case name == "all":
			todo = append(todo, bench.Experiments()...)
		case !ok:
			return fail("unknown experiment %q", name)
		default:
			todo = append(todo, e)
		}
	}
	for _, e := range todo {
		for _, t := range e.Run(cfg) {
			if *csv {
				t.CSV(stdout)
				fmt.Fprintln(stdout)
			} else {
				t.Fprint(stdout)
			}
		}
	}
	return 0
}
