// Command perfbench is the repository's benchmark: it drives the public
// functions of perm, search, store (Store and DB), internal/wire, server
// and client on generated inputs, checks every answer against a model of
// what was written, and prints one JSON result line.
//
//	perfbench --workload build|ingest-read|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics of the named
// workload. With --trace 1 it carries the per-layer metrics: the named
// workload runs in full and then the other two in brief, so that every
// traced run measures every layer, and every call the benchmark makes
// into a layer is recorded as a span and written to .bench_out/ at exit.
// README.md in this directory explains each workload and metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"implicitlayout/perm"
	"implicitlayout/store"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state: inputs, budget, tracer, checker, and the
// metrics collected so far.
type bench struct {
	seed   uint64
	budget time.Duration
	brief  bool    // a traced run's other workloads: one set-up, fewest repetitions
	tr     *tracer // nil unless --trace 1
	chk    checker
	e2e    map[string]metric
	layer  map[string]metric
	env    map[string]any
	work   string // scratch directory for DB files, inside the checkout
}

func (b *bench) traced() bool { return b.tr != nil }

// setE2E records an end-to-end metric of the named workload; the brief
// workloads of a traced run report none.
func (b *bench) setE2E(name, unit string, v float64) {
	if !b.brief {
		b.e2e[name] = metric{v, unit}
	}
}

// setLayer records a per-layer metric in the traced run. A figure that
// two workloads both measure (db.open_s, runtime.*) is the named
// workload's, which runs first; a brief workload only fills the gaps.
func (b *bench) setLayer(name, unit string, v float64) {
	if !b.traced() {
		return
	}
	if _, ok := b.layer[name]; ok && b.brief {
		return
	}
	b.layer[name] = metric{v, unit}
}

// minRounds is the fewest timed repetitions of a measurement: n, or 3 in
// a brief workload.
func (b *bench) minRounds(n int) int {
	if b.brief {
		return min(n, 3)
	}
	return n
}

// phase is an open phase span and the process counters read as it
// opened (traced run only).
type phase struct {
	sp   int32
	io   procIO
	ioOK bool
	mem  memSample
}

// beginPhase opens a phase span, the parent of the calls made inside it.
func (b *bench) beginPhase(n spanName, req uint32) phase {
	if !b.traced() {
		return phase{sp: -1}
	}
	io, err := readProcIO()
	return phase{sp: b.tr.begin(n, req), io: io, ioOK: err == nil, mem: readMem()}
}

// endPhase closes the span, attaching the deltas of the process counters
// over the phase: bytes and calls through write(2), mallocs and GC cycles
// the runtime started on its own.
func (b *bench) endPhase(p phase) {
	if !b.traced() {
		return
	}
	m := readMem()
	if io, err := readProcIO(); err == nil && p.ioOK {
		b.tr.count(p.sp, "wchar_bytes", float64(io.WChar-p.io.WChar))
		b.tr.count(p.sp, "syscw", float64(io.SyscW-p.io.SyscW))
	}
	b.tr.count(p.sp, "mallocs", float64(m.Mallocs-p.mem.Mallocs))
	b.tr.count(p.sp, "gc_unforced", unforcedGC(p.mem, m))
	b.tr.end(p.sp)
}

var workloads = map[string]func(*bench) error{
	"build":       runBuild,
	"ingest-read": runIngestRead,
	"serve":       runServe,
}

// workloadOrder is what one run executes: the named workload alone, or
// in a traced run the named workload followed by the other two, so each
// traced run covers every layer whatever its workload.
func workloadOrder(name string, traced bool) []string {
	out := []string{name}
	if traced {
		for _, w := range []string{"build", "ingest-read", "serve"} {
			if w != name {
				out = append(out, w)
			}
		}
	}
	return out
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: build, ingest-read or serve")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*name]; !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	budget := time.Duration(*seconds * float64(time.Second))
	b := &bench{
		seed:  *seed,
		e2e:   map[string]metric{},
		layer: map[string]metric{},
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	order := workloadOrder(*name, *trace == 1)
	b.env = environment(*name, *seed, *seconds, *trace)
	if *trace == 1 {
		b.env["traced_workloads"] = order
	}
	root := filepath.Join(".bench_work", fmt.Sprintf("%s-%d", *name, os.Getpid()))
	defer func() {
		os.RemoveAll(root)
		os.Remove(filepath.Dir(root)) // only if no other run is using it
	}()

	for _, w := range order {
		b.brief = w != *name
		b.budget = budget
		if b.brief {
			b.budget = 0
		}
		b.work = filepath.Join(root, w)
		if err := os.MkdirAll(b.work, 0o755); err != nil {
			return err
		}
		if err := workloads[w](b); err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		if !b.brief {
			u, err := readUsage()
			if err != nil {
				return err
			}
			b.setE2E("peak_rss_mb", "MB", float64(u.MaxRSSBytes)/1e6)
		}
	}

	res := result{
		Correct:   b.chk.failed == 0 && b.chk.attempted > 0,
		Attempted: b.chk.attempted,
		Failed:    b.chk.failed,
		Metrics:   b.e2e,
	}
	if b.traced() {
		res.Metrics = b.layer
		if err := os.MkdirAll(".bench_out", 0o755); err != nil {
			return err
		}
		path := filepath.Join(".bench_out", fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := b.tr.write(path, b.env); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		b.env["trace_file"] = path
	}
	info, err := json.Marshal(map[string]any{"env": b.env, "e2e": b.e2e, "per_layer": b.layer})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%s\n%s\n", info, line)
	return w.Flush()
}

// environment is the block recorded with every result: the machine, the
// toolchain, the code, the inputs, and the library defaults in force.
func environment(workload string, seed uint64, seconds float64, trace int) map[string]any {
	return map[string]any{
		"workload":     workload,
		"seed":         seed,
		"seconds":      seconds,
		"trace":        trace,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"cpu_model":    cpuModel(),
		"caches":       cacheSizes(),
		"thp":          readTrim("/sys/kernel/mm/transparent_hugepage/enabled"),
		"go_version":   runtime.Version(),
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
		"commit":       os.Getenv("PERFBENCH_COMMIT"),
		"source_hash":  os.Getenv("PERFBENCH_SOURCE_HASH"),
		"dataset":      datasets[workload],
		"defaults":     defaultsInForce,
		"flush_policy": flushPolicy,
	}
}

// defaultsInForce documents the library defaults every workload runs on;
// the benchmark passes no options, so these are whatever the packages
// choose when given none.
var defaultsInForce = map[string]any{
	"store.layout":       "veb",
	"store.algorithm":    "cycle-leader",
	"store.shards":       runtime.GOMAXPROCS(0),
	"store.B":            perm.DefaultB,
	"db.MemLimit":        store.DefaultMemLimit,
	"db.Fanout":          store.DefaultFanout,
	"db.SyncWrites":      false,
	"db.Mmap":            false,
	"server.MaxInflight": 64,
	"client.Window":      128,
}

const flushPolicy = "SyncWrites off: every acknowledged Put reaches the OS before it returns; the WAL is fsynced when a memtable freezes"

var datasets = map[string]any{
	"build": map[string]any{
		"records": buildN, "keys": "uniform uint64, unsorted", "values": "uint64",
	},
	"ingest-read": map[string]any{
		"puts": ingestPuts, "key_space": ingestSpace, "gets_every_puts": getEvery,
		"lookups": "50% present, 50% absent", "range_records": rangeSpan,
		"getbatch_keys": batchKeys,
	},
	"serve": map[string]any{
		"preload": servePreload, "mix": "90% Get / 10% Put, Gets 50% present",
		"pipeline_window": pipeWindow, "client_getbatch_keys": clientBatch,
		"open_loop_rate_per_s": openRate,
	},
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes reads cpu0's cache hierarchy from sysfs as "L<level>
// <type>" → size.
func cacheSizes() map[string]string {
	out := map[string]string{}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lvl := readTrim(filepath.Join(d, "level"))
		typ := readTrim(filepath.Join(d, "type"))
		out["L"+lvl+" "+typ] = readTrim(filepath.Join(d, "size"))
	}
	return out
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
