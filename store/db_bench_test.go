package store_test

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"implicitlayout/layout"
	"implicitlayout/store"
)

// BenchmarkDBGet times DB.Get on a reopened directory that holds one run
// of 2^20 uniform uint64 records, laid out in each layout: "present"
// asks for stored keys, "mixed" for stored and absent keys half and
// half, both in random order, 2^18 distinct queries. It is the cell the
// DB's default run layout is chosen by. Each layout's directory is
// written once, by the first row that needs it, and all are removed
// when the benchmark ends.
func BenchmarkDBGet(b *testing.B) {
	const n = 1 << 20
	r := rand.New(rand.NewPCG(7, 8))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	present, mixed := make([]uint64, 1<<18), make([]uint64, 1<<18)
	for i := range present {
		present[i] = keys[r.IntN(n)]
		mixed[i] = present[i]
		if i&1 == 1 {
			mixed[i] = r.Uint64() // absent but for a 2^-44 chance
		}
	}
	root, err := os.MkdirTemp("", "dbget-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(root) })
	for _, kind := range []layout.Kind{layout.Sorted, layout.BST, layout.BTree, layout.VEB, layout.Hier} {
		var db *store.DB[uint64, uint64]
		open := func(b *testing.B) *store.DB[uint64, uint64] {
			if db == nil {
				db = reopenedOneRun(b, filepath.Join(root, kind.String()), kind, keys)
			}
			return db
		}
		for _, q := range []struct {
			name string
			qs   []uint64
		}{{"present", present}, {"mixed", mixed}} {
			b.Run(fmt.Sprintf("%v/%s", kind, q.name), func(b *testing.B) {
				db := open(b)
				hits := 0
				b.ResetTimer()
				for i := range b.N {
					if _, ok := db.Get(q.qs[i&(len(q.qs)-1)]); ok {
						hits++
					}
				}
				if q.name == "present" && hits != b.N {
					b.Fatalf("%d of %d stored keys found", hits, b.N)
				}
			})
		}
		if db != nil {
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// reopenedOneRun writes keys (each its own value) into directory dir as
// one run laid out as kind, closes the DB and opens it again.
func reopenedOneRun(b *testing.B, dir string, kind layout.Kind, keys []uint64) *store.DB[uint64, uint64] {
	cfg := store.DBConfig{MemLimit: len(keys) + 1, Store: []store.Option{store.WithLayout(kind)}}
	db, err := store.Open[uint64, uint64](dir, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range keys {
		if err := db.Put(k, k); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	if db, err = store.Open[uint64, uint64](dir, cfg); err != nil {
		b.Fatal(err)
	}
	if runs := db.Stats().Runs(); runs != 1 {
		b.Fatalf("%v: %d runs, want one", kind, runs)
	}
	return db
}

// BenchmarkDBPut times durable Puts of distinct uint64 keys into a fresh
// DB at the default memtable limit, with SyncWrites off (the default)
// and on: one log append per Put, with a freeze every DefaultMemLimit
// Puts and the flushes and merges they start running beside the writer.
// Allocations count the compactor's too.
func BenchmarkDBPut(b *testing.B) {
	for _, sync := range []bool{false, true} {
		b.Run(fmt.Sprintf("SyncWrites=%v", sync), func(b *testing.B) {
			db, err := store.Open[uint64, uint64](b.TempDir(), store.DBConfig{SyncWrites: sync})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range uint64(b.N) {
				if err := db.Put(i*0x9E3779B97F4A7C15, i); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkDBRange times a 64-record DB.Range on a DB that holds one run
// of 2^20 uniform uint64 records, with the active memtable at 0, 1 and
// MemLimit/2 records: what a short ordered read pays for the table beside
// the run. MemLimit is the run's size, so the last of its Puts freezes
// the table that becomes the run and the active table is the one that
// replaced it, as in a DB that has been taking writes.
func BenchmarkDBRange(b *testing.B) {
	const n, width = 1 << 20, 64
	r := rand.New(rand.NewPCG(7, 8))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	cfg := store.DBConfig{MemLimit: n}
	db, err := store.Open[uint64, uint64](b.TempDir(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	for _, k := range keys {
		if err := db.Put(k, k); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	if runs := db.Stats().Runs(); runs != 1 {
		b.Fatalf("%d runs, want one", runs)
	}
	slices.Sort(keys)
	starts := make([]int, 1<<10)
	for i := range starts {
		starts[i] = r.IntN(n - width)
	}
	active := 0
	for _, fill := range []int{0, 1, cfg.MemLimit / 2} {
		b.Run(fmt.Sprintf("active=%d", fill), func(b *testing.B) {
			for ; active < fill; active++ {
				if err := db.Put(r.Uint64(), 0); err != nil {
					b.Fatal(err)
				}
			}
			if got := db.Stats().MemRecords; got != fill {
				b.Fatalf("active table holds %d records, want %d", got, fill)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				s := starts[i&(len(starts)-1)]
				got := 0
				db.Range(keys[s], keys[s+width-1], func(uint64, uint64) bool {
					got++
					return true
				})
				if got < width {
					b.Fatalf("Range returned %d records, want ≥ %d", got, width)
				}
			}
		})
	}
}
