package bench

import "runtime"

// Experiment is one table or figure of the paper's evaluation.
type Experiment struct {
	// Name selects the experiment, e.g. "fig6.1".
	Name string
	// Doc says in one line what the experiment measures.
	Doc string
	// MinLog and MaxLog are the experiment's default size sweep.
	MinLog, MaxLog int
	// run produces the experiment's tables.
	run func(Config) []Table
}

// Run runs the experiment under cfg. A zero MaxLog takes the experiment's
// default, a zero MinLog the default capped at MaxLog, and a P below 1
// selects runtime.GOMAXPROCS(0).
func (e Experiment) Run(cfg Config) []Table {
	if cfg.MaxLog == 0 {
		cfg.MaxLog = e.MaxLog
	}
	if cfg.MinLog == 0 {
		cfg.MinLog = min(e.MinLog, cfg.MaxLog)
	}
	if cfg.P < 1 {
		cfg.P = runtime.GOMAXPROCS(0)
	}
	return e.run(cfg)
}

// Experiments lists the paper's figures and Table 1.1 in paper order,
// then the Section 4.2 gather ablation.
func Experiments() []Experiment {
	one := func(f func(Config) Table) func(Config) []Table {
		return func(c Config) []Table { return []Table{f(c)} }
	}
	serial := func(f func(Config) []Table) func(Config) []Table {
		return func(c Config) []Table { c.P = 1; return f(c) }
	}
	permute := one(PermuteTimes)
	breakEven := func(c Config) []Table { return BreakEven(c).tables() }
	return []Experiment{
		{"fig6.1", "permute time vs N, six algorithms, P=1", 20, 24, serial(permute)},
		{"fig6.2", "permute time vs N, six algorithms, P workers", 20, 24, permute},
		{"fig6.3", "speedup vs P of the fastest algorithm per layout", 24, 24, one(Speedup)},
		{"fig6.4", "equidistant gather vs half swap, throughput vs P", 24, 24, one(GatherThroughput)},
		{"fig6.5", "time for Q queries vs N, binary search and each layout", 16, 24, one(QueryTimes)},
		{"fig6.6", "permute+query time vs Q and break-even Q, P=1", 24, 24, serial(breakEven)},
		{"fig6.7", "permute+query time vs Q and break-even Q, P workers", 24, 24, breakEven},
		{"fig6.8", "simulated GPU permute time vs N", 18, 23, one(GPUPermuteTimes)},
		{"fig6.9", "simulated GPU permute+query time vs Q and break-even Q", 23, 23,
			func(c Config) []Table { return GPUBreakEven(c).tables() }},
		{"table1.1", "swaps per key and PEM I/O over the bound vs N", 12, 18,
			func(c Config) []Table { return []Table{WorkScaling(c), IOScaling(c)} }},
		{"sec4.2", "vEB cycle-leader gather variants, time and PEM I/O", 12, 20, one(GatherAblation)},
	}
}
