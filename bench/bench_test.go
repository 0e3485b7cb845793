package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"implicitlayout/internal/bits"
	"implicitlayout/internal/pem"
)

// Tiny configurations: these tests validate that every experiment runner
// produces well-formed tables with sane values; cmd/paperbench runs them
// at paper scale.

func TestTableFormatting(t *testing.T) {
	tb := Table{Title: "t", Note: "n", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== t ==", "a", "bb", "333"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	sb.Reset()
	tb.CSV(&sb)
	if !strings.HasPrefix(sb.String(), "a,bb\n1,2\n") {
		t.Fatalf("bad CSV:\n%s", sb.String())
	}
}

func TestTimeIt(t *testing.T) {
	preps, runs := 0, 0
	d := timeIt(3, func() { preps++ }, func() { runs++; time.Sleep(time.Millisecond) })
	if preps != 4 || runs != 4 { // 1 warmup + 3 trials
		t.Fatalf("preps=%d runs=%d", preps, runs)
	}
	if d < 500*time.Microsecond {
		t.Fatalf("mean %v implausible", d)
	}
}

// tiny is a configuration every runner finishes quickly on.
func tiny() Config {
	return Config{
		MinLog: 10, MaxLog: 11, P: 2, MaxP: 2, B: 4, Trials: 1,
		Q: 1000, MinLogQ: 10, MaxLogQ: 12, Seed: 1,
		PEM: pem.Config{M: 256, B: 4},
	}
}

func TestPermuteTimesShape(t *testing.T) {
	tb := PermuteTimes(tiny())
	if len(tb.Rows) != 2 || len(tb.Header) != 7 {
		t.Fatalf("unexpected shape: %dx%d", len(tb.Rows), len(tb.Header))
	}
}

func TestSpeedupShape(t *testing.T) {
	cfg := tiny()
	cfg.MaxLog = 12
	tb := Speedup(cfg)
	if len(tb.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(tb.Rows))
	}
	if tb.Rows[0][1] == "" {
		t.Fatal("empty speedup cell")
	}
}

func TestGatherThroughputShape(t *testing.T) {
	cfg := tiny()
	cfg.MaxLog = 14
	tb := GatherThroughput(cfg)
	if len(tb.Rows) != 2 || len(tb.Header) != 3 {
		t.Fatal("unexpected shape")
	}
}

func TestQueryTimesShape(t *testing.T) {
	tb := QueryTimes(tiny())
	if len(tb.Rows) != 2 || len(tb.Header) != 5 {
		t.Fatal("unexpected shape")
	}
}

func TestBreakEvenProducesCrossovers(t *testing.T) {
	cfg := tiny()
	cfg.MaxLog, cfg.P, cfg.Q = 14, 1, 1<<12
	res := BreakEven(cfg)
	if len(res.Combined.Rows) != 3 {
		t.Fatalf("want 3 combined rows, got %d", len(res.Combined.Rows))
	}
	if len(res.Crossovers.Rows) != 3 {
		t.Fatalf("want 3 crossover rows, got %d", len(res.Crossovers.Rows))
	}
}

func TestGPUTablesShape(t *testing.T) {
	cfg := tiny()
	cfg.Q, cfg.MinLogQ, cfg.MaxLogQ = 1<<10, 8, 10
	tb := GPUPermuteTimes(cfg)
	if len(tb.Rows) != 2 || len(tb.Header) != 7 {
		t.Fatal("unexpected GPU permute shape")
	}
	res := GPUBreakEven(cfg)
	if len(res.Combined.Rows) != 3 || len(res.Crossovers.Rows) != 3 {
		t.Fatal("unexpected GPU break-even shape")
	}
}

// checkRatios fails on a cell that is not a positive finite number.
func checkRatios(t *testing.T, tb Table) {
	t.Helper()
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			if strings.Contains(cell, "NaN") || strings.Contains(cell, "Inf") || strings.HasPrefix(cell, "-") {
				t.Fatalf("%s: bad cell %q", tb.Title, cell)
			}
		}
	}
}

func TestTable11Runners(t *testing.T) {
	cfg := tiny()
	cfg.MinLog, cfg.MaxLog, cfg.B = 8, 10, 2
	work := WorkScaling(cfg)
	ios := IOScaling(cfg)
	if len(work.Rows) != 3 || len(ios.Rows) != 3 {
		t.Fatal("unexpected table 1.1 shapes")
	}
	checkRatios(t, ios)
}

// TestGatherAblationShape runs the Section 4.2 ablation, whose built-in
// guard checks all three vEB gather variants against the oracle layout.
func TestGatherAblationShape(t *testing.T) {
	cfg := tiny()
	cfg.MinLog, cfg.MaxLog = 8, 9
	tb := GatherAblation(cfg)
	if len(tb.Rows) != 2 || len(tb.Header) != 7 {
		t.Fatalf("unexpected shape: %dx%d", len(tb.Rows), len(tb.Header))
	}
	checkRatios(t, tb)
}

// TestGatherAblationBatchingSavesIO holds sec4.2's default sweep to the
// Section 4.2 claim it reports: at its largest size, 2^20-1, under the
// default simulated cache, the batched gather moves fewer blocks than
// the plain strided cycles.
func TestGatherAblationBatchingSavesIO(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates three gathers at N = 2^20-1")
	}
	var sec42 Experiment
	for _, e := range Experiments() {
		if e.Name == "sec4.2" {
			sec42 = e
		}
	}
	cfg := Config{MinLog: sec42.MaxLog, MaxLog: sec42.MaxLog, Trials: 1, PEM: DefaultPEM}
	row := GatherAblation(cfg).Rows[0]
	plain, err1 := strconv.ParseFloat(row[4], 64)
	batched, err2 := strconv.ParseFloat(row[5], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unparsable io cells in %q", row)
	}
	if batched >= plain {
		t.Fatalf("N=%s: io-batched %v >= io-plain %v", row[0], batched, plain)
	}
}

// TestConfigOptionsSoftwareRev: Config.options, through which every
// runner builds its CPU permutations, carries SoftwareRev, so one run
// never mixes two T_REV2 models.
func TestConfigOptionsSoftwareRev(t *testing.T) {
	cfg := tiny()
	if _, ok := cfg.options(1).Rev.(bits.Software); ok {
		t.Fatal("default config uses software bit reversal")
	}
	cfg.SoftwareRev = true
	if _, ok := cfg.options(1).Rev.(bits.Software); !ok {
		t.Fatal("SoftwareRev not applied to the permutation options")
	}
}
