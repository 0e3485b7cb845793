package bench

import (
	"strings"
	"testing"
	"time"

	"implicitlayout/internal/pem"
)

// Tiny configurations: these tests validate that every experiment runner
// produces well-formed tables with sane values; the cmd/* tools run them
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

func TestPermuteTimesShape(t *testing.T) {
	tb := PermuteTimes(PermuteConfig{MinLog: 10, MaxLog: 11, P: 2, B: 4, Trials: 1})
	if len(tb.Rows) != 2 || len(tb.Header) != 7 {
		t.Fatalf("unexpected shape: %dx%d", len(tb.Rows), len(tb.Header))
	}
}

func TestSpeedupShape(t *testing.T) {
	tb := Speedup(SpeedupConfig{LogN: 12, MaxP: 2, B: 4, Trials: 1})
	if len(tb.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(tb.Rows))
	}
	if tb.Rows[0][1] == "" {
		t.Fatal("empty speedup cell")
	}
}

func TestGatherThroughputShape(t *testing.T) {
	tb := GatherThroughput(ThroughputConfig{LogN: 14, MaxP: 2, B: 4, Trials: 1})
	if len(tb.Rows) != 2 || len(tb.Header) != 3 {
		t.Fatal("unexpected shape")
	}
}

func TestQueryTimesShape(t *testing.T) {
	tb := QueryTimes(QueryConfig{MinLog: 10, MaxLog: 11, Q: 1000, B: 4, Trials: 1, Seed: 1})
	if len(tb.Rows) != 2 || len(tb.Header) != 5 {
		t.Fatal("unexpected shape")
	}
}

func TestBreakEvenProducesCrossovers(t *testing.T) {
	res := BreakEven(BreakEvenConfig{
		LogN: 14, P: 1, B: 4, Trials: 1, QBase: 1 << 12,
		MinLogQ: 10, MaxLogQ: 12, Seed: 1,
	})
	if len(res.Combined.Rows) != 3 {
		t.Fatalf("want 3 combined rows, got %d", len(res.Combined.Rows))
	}
	if len(res.Crossovers.Rows) != 3 {
		t.Fatalf("want 3 crossover rows, got %d", len(res.Crossovers.Rows))
	}
}

func TestGPUTablesShape(t *testing.T) {
	cfg := GPUConfig{MinLog: 10, MaxLog: 11, LogN: 11, B: 8, QBase: 1 << 10, MinLogQ: 8, MaxLogQ: 10, Seed: 1}
	tb := GPUPermuteTimes(cfg)
	if len(tb.Rows) != 2 || len(tb.Header) != 7 {
		t.Fatal("unexpected GPU permute shape")
	}
	res := GPUBreakEven(cfg)
	if len(res.Combined.Rows) != 3 || len(res.Crossovers.Rows) != 3 {
		t.Fatal("unexpected GPU break-even shape")
	}
}

func TestTable11Runners(t *testing.T) {
	cfg := Table11Config{MinLog: 8, MaxLog: 10, B: 2, P: 2, PEM: pem.Config{M: 256, B: 4}}
	work := WorkScaling(cfg)
	ios := IOScaling(cfg)
	if len(work.Rows) != 3 || len(ios.Rows) != 3 {
		t.Fatal("unexpected table 1.1 shapes")
	}
	// ratios must be positive and finite
	for _, row := range ios.Rows {
		for _, cell := range row[1:] {
			if strings.Contains(cell, "NaN") || strings.Contains(cell, "Inf") || strings.HasPrefix(cell, "-") {
				t.Fatalf("bad I/O ratio cell %q", cell)
			}
		}
	}
}
