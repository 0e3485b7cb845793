package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (mean of the two middles for even
// lengths); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified. An empty xs yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// durQuantile is quantile over durations, in nanoseconds.
func durQuantile(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return quantile(xs, q)
}

// rounds times several operations interleaved: one untimed warm-up call
// of each fn (when warm), then rounds that call every fn once — each
// round preceded by runtime.GC, so one round's garbage is not charged to
// the next — until at least min rounds have run and budget is spent, or
// max have run. Interleaving spreads every operation's samples over the
// whole measurement, so a slow spell on a shared machine lands on all of
// them instead of on one. Each fn times its own critical section, keeping
// set-up and verification out of the figure, and returns that time;
// rounds returns the times per fn.
func rounds(warm bool, min, max int, budget time.Duration, fns ...func(rep int) time.Duration) [][]time.Duration {
	if warm {
		for _, fn := range fns {
			fn(-1)
		}
	}
	out := make([][]time.Duration, len(fns))
	start := time.Now()
	for r := 0; r < max && (r < min || time.Since(start) < budget); r++ {
		runtime.GC()
		for i, fn := range fns {
			out[i] = append(out[i], fn(r))
		}
	}
	return out
}

// procIO is the subset of /proc/self/io the benchmark reads: bytes and
// calls through write(2)-family syscalls, whether or not they reach the
// disk.
type procIO struct {
	WChar, SyscW, RChar, SyscR uint64
}

// readProcIO parses /proc/self/io.
func readProcIO() (procIO, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return procIO{}, err
	}
	defer f.Close()
	return parseProcIO(f)
}

// parseProcIO parses the "name: value" lines of a /proc/<pid>/io file.
func parseProcIO(r io.Reader) (procIO, error) {
	var p procIO
	seen := 0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return procIO{}, fmt.Errorf("proc io: field %s: %w", name, err)
		}
		switch name {
		case "wchar":
			p.WChar = n
		case "syscw":
			p.SyscW = n
		case "rchar":
			p.RChar = n
		case "syscr":
			p.SyscR = n
		default:
			continue
		}
		seen++
	}
	if err := sc.Err(); err != nil {
		return procIO{}, err
	}
	if seen != 4 {
		return procIO{}, fmt.Errorf("proc io: found %d of rchar/wchar/syscr/syscw", seen)
	}
	return p, nil
}

// usage is the subset of getrusage(RUSAGE_SELF) the benchmark reads.
type usage struct {
	MaxRSSBytes int64
	MajFlt      int64
}

// readUsage calls getrusage for the whole process. Linux reports ru_maxrss
// in KiB.
func readUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, err
	}
	return usage{MaxRSSBytes: int64(ru.Maxrss) * 1024, MajFlt: int64(ru.Majflt)}, nil
}

// memSample is a runtime.MemStats reading reduced to the counters the
// benchmark differences across a phase.
type memSample struct {
	Mallocs, TotalAlloc uint64
	NumGC, NumForcedGC  uint32
}

// unforcedGC is the GC cycles between a and b that the runtime started on
// its own (the benchmark's runtime.GC calls excluded).
func unforcedGC(a, b memSample) float64 {
	return float64((b.NumGC - a.NumGC) - (b.NumForcedGC - a.NumForcedGC))
}

// liveHeap collects garbage and returns the bytes of heap objects left.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{Mallocs: ms.Mallocs, TotalAlloc: ms.TotalAlloc, NumGC: ms.NumGC, NumForcedGC: ms.NumForcedGC}
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
