package perm

import (
	"runtime"
	"testing"
)

// TestOptionPlumbing pins the config-to-core translation: exactly one
// runner is built, workers < 1 resolve to GOMAXPROCS, and defaults hold.
func TestOptionPlumbing(t *testing.T) {
	if c := buildConfig(nil); c.workers != 1 || c.b != DefaultB {
		t.Fatalf("defaults: workers=%d b=%d", c.workers, c.b)
	}
	if o := buildConfig(nil).options(); o.Runner.P() != 1 {
		t.Fatalf("default runner has %d workers, want 1", o.Runner.P())
	}
	if o := buildConfig([]Option{WithWorkers(3)}).options(); o.Runner.P() != 3 {
		t.Fatalf("WithWorkers(3) runner has %d workers", o.Runner.P())
	}
	for _, w := range []int{0, -5} {
		o := buildConfig([]Option{WithWorkers(w)}).options()
		if got, want := o.Runner.P(), runtime.GOMAXPROCS(0); got != want {
			t.Fatalf("WithWorkers(%d) runner has %d workers, want GOMAXPROCS=%d", w, got, want)
		}
	}
}
