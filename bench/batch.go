package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"runtime"

	"implicitlayout/internal/mmapio"
	"implicitlayout/internal/par"
	"implicitlayout/internal/workload"
	"implicitlayout/layout"
	"implicitlayout/search"
	"implicitlayout/store"
)

// BatchConfig parameterizes the batched-search benchmark: serial
// one-at-a-time descents against the interleaved ring kernels, on a
// heap-resident index and (optionally) on a freshly mapped segment.
type BatchConfig struct {
	// LogN is the key count exponent (2^LogN keys) — the measurement is
	// only meaningful when the index is out of cache (LogN >= 22 on
	// typical parts).
	LogN int
	// Q is the number of queries per measurement.
	Q int
	// B is the B-tree node capacity.
	B int
	// HitFrac is the expected fraction of present-key queries.
	HitFrac float64
	// Layouts and Workers span the measured grid.
	Layouts []layout.Kind
	Workers []int
	// Trials is the number of timed repetitions per cell.
	Trials int
	// Seed drives the query generator.
	Seed int64
	// Mmap adds cold-serve rows: each layout's records are written to a
	// raw (v2.1) segment, and every trial reopens it with the arrays
	// mapped — so the queried pages fault in during the measurement,
	// the regime PR 5's zero-copy serving creates after a cold start.
	Mmap bool
	// Dir is the scratch directory for Mmap segment files; empty means
	// a fresh temp directory, removed afterwards.
	Dir string
}

// serialFindBatch is the pre-kernel batch path kept as the baseline:
// partition across p workers, each answering its chunk with
// one-at-a-time descents — one dependent pointer chase per query.
func serialFindBatch(ix *search.Index[uint64], queries []uint64, p int) int {
	if p < 2 || len(queries) < 2*p {
		hits := 0
		for _, q := range queries {
			if ix.Find(q) >= 0 {
				hits++
			}
		}
		return hits
	}
	r := par.Runner{Lo: 0, Hi: p, MinFor: 2 * p}
	partial := make([]int, p)
	r.For(len(queries), func(w, lo, hi int) {
		h := 0
		for _, q := range queries[lo:hi] {
			if ix.Find(q) >= 0 {
				h++
			}
		}
		partial[w] = h
	})
	hits := 0
	for _, h := range partial {
		hits += h
	}
	return hits
}

// serialGetBatch is the same baseline at the store surface: per-query
// route + descend, partitioned across p workers.
func serialGetBatch(st *store.Store[uint64, uint64], queries []uint64, p int) int {
	if p < 2 || len(queries) < 2*p {
		hits := 0
		for _, q := range queries {
			if _, ok := st.Get(q); ok {
				hits++
			}
		}
		return hits
	}
	r := par.Runner{Lo: 0, Hi: p, MinFor: 2 * p}
	partial := make([]int, p)
	r.For(len(queries), func(w, lo, hi int) {
		h := 0
		for _, q := range queries[lo:hi] {
			if _, ok := st.Get(q); ok {
				h++
			}
		}
		partial[w] = h
	})
	hits := 0
	for _, h := range partial {
		hits += h
	}
	return hits
}

// BatchThroughput measures what the interleaved ring kernels buy over
// serial descents for the paper's headline workload — millions of
// independent queries. The heap rows compare Index.FindBatch's kernel
// path against the per-query baseline on a resident index; with Mmap
// set, the mmap-cold rows repeat the comparison through Store.GetBatch
// on a segment remapped before every trial, where each miss is a page
// fault away. Both paths' hit counts are cross-checked every trial.
func BatchThroughput(c BatchConfig) (*Table, error) {
	n := 1 << c.LogN
	sorted := workload.Sorted(n)
	queries := workload.Queries(c.Q, n, c.HitFrac, c.Seed)
	t := &Table{
		Title: fmt.Sprintf("batch: interleaved ring kernels vs serial descents, N=2^%d, %d queries", c.LogN, c.Q),
		Note: fmt.Sprintf("serial = per-query descents partitioned across workers (the pre-kernel "+
			"batch path); ring = interleaved lockstep kernels; hitfrac=%.2f b=%d trials=%d",
			c.HitFrac, c.B, c.Trials),
		Header: []string{"mode", "layout", "workers", "serial_Mop/s", "ring_Mop/s", "speedup", "hit%"},
	}
	mops := func(secs float64) float64 { return float64(c.Q) / secs / 1e6 }
	for _, kind := range c.Layouts {
		arr := layout.Build(kind, sorted, c.B)
		ix := search.NewIndex(arr, kind, c.B)
		for _, p := range c.Workers {
			var serialHits, ringHits int
			gc := func() { runtime.GC() }
			sd := timeIt(c.Trials, gc, func() {
				serialHits = serialFindBatch(ix, queries, p)
			})
			rd := timeIt(c.Trials, gc, func() {
				ringHits = ix.FindBatch(queries, p)
			})
			if ringHits != serialHits {
				return nil, fmt.Errorf("bench: %v heap: ring hits %d != serial hits %d", kind, ringHits, serialHits)
			}
			sm, rm := mops(sd.Seconds()), mops(rd.Seconds())
			t.AddRow("heap", kind.String(), fmt.Sprint(p), fmt.Sprintf("%.2f", sm),
				fmt.Sprintf("%.2f", rm), ratio(rm/sm),
				fmt.Sprintf("%.1f", 100*float64(ringHits)/float64(c.Q)))
		}
	}
	if !c.Mmap {
		return t, nil
	}
	dir := c.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "batchbench")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	vals := make([]uint64, n)
	for i, k := range sorted {
		vals[i] = k ^ storeValMagic
	}
	for _, kind := range c.Layouts {
		built, err := store.Build(sorted, vals,
			store.WithLayout(kind), store.WithShards(8), store.WithB(c.B))
		if err != nil {
			return nil, fmt.Errorf("bench: %v: build: %w", kind, err)
		}
		path := filepath.Join(dir, fmt.Sprintf("batch_%s.seg", kind))
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if _, err := built.WriteTo(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("bench: %v: write segment: %w", kind, err)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		for _, p := range c.Workers {
			var st *store.Store[uint64, uint64]
			remap := func() {
				// Unmap the previous trial's mapping and collect the heap
				// garbage the measurements left behind, outside the timed
				// region: stale mappings and a mid-trial GC otherwise bleed
				// one cell into the next on a single-CPU machine. Evicting
				// the segment from the page cache is what makes the trial
				// cold: without it a remap only rebuilds page tables and
				// every "fault" is a minor fault against warm cache.
				if st != nil {
					st.Release()
				}
				runtime.GC()
				var err error
				st, err = store.OpenStore[uint64, uint64](path, store.WithMmap(true))
				if err != nil {
					panic(fmt.Sprintf("bench: %v: reopen mmap: %v", kind, err))
				}
				if err := mmapio.Evict(path); err != nil {
					panic(fmt.Sprintf("bench: %v: evict page cache: %v", kind, err))
				}
			}
			var serialHits, ringHits int
			sd := timeIt(c.Trials, remap, func() {
				serialHits = serialGetBatch(st, queries, p)
			})
			rd := timeIt(c.Trials, remap, func() {
				ringHits = st.GetBatch(queries, p).Hits
			})
			if ringHits != serialHits {
				return nil, fmt.Errorf("bench: %v mmap: ring hits %d != serial hits %d", kind, ringHits, serialHits)
			}
			sm, rm := mops(sd.Seconds()), mops(rd.Seconds())
			t.AddRow("mmap-cold", kind.String(), fmt.Sprint(p), fmt.Sprintf("%.2f", sm),
				fmt.Sprintf("%.2f", rm), ratio(rm/sm),
				fmt.Sprintf("%.1f", 100*float64(ringHits)/float64(c.Q)))
		}
	}
	return t, nil
}
