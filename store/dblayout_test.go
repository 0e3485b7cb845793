package store

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"testing"

	"implicitlayout/internal/mmapio"
	"implicitlayout/layout"
)

// segLayouts returns the layout and node capacity each live segment file
// of dir records in its header.
func segLayouts(t *testing.T, dir string) (kinds []layout.Kind, bs []int) {
	t.Helper()
	for _, path := range listFiles(t, dir, "seg-*.seg") {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		hdr, _, err := readSegHead(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		kinds = append(kinds, layout.Kind(hdr.Layout))
		bs = append(bs, hdr.B)
	}
	return kinds, bs
}

// runLayouts returns the layout of every run a DB serves, newest first.
func runLayouts(db *DB[uint64, uint64]) []layout.Kind {
	var kinds []layout.Kind
	for _, r := range db.state.Load().runs {
		kinds = append(kinds, r.st.Layout())
	}
	return kinds
}

// TestDBRunsDefaultToBTree: a DB opened without WithLayout lays its runs
// out as B-trees of layout.DefaultB keys per node, on disk and in memory,
// while Build and a DB that names a layout keep theirs.
func TestDBRunsDefaultToBTree(t *testing.T) {
	dir := t.TempDir()
	db, err := Open[uint64, uint64](dir, DBConfig{MemLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := range uint64(300) {
		if err := db.Put(i*7, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	kinds, bs := segLayouts(t, dir)
	if len(kinds) == 0 {
		t.Fatal("flushes wrote no segment")
	}
	for i, k := range kinds {
		if k != layout.BTree || bs[i] != layout.DefaultB {
			t.Fatalf("segment %d header records %v with b=%d, want btree with b=%d", i, k, bs[i], layout.DefaultB)
		}
	}
	for _, k := range runLayouts(db) {
		if k != layout.BTree {
			t.Fatalf("durable DB serves a %v run, want btree", k)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	mem, err := NewDB[uint64, uint64](DBConfig{MemLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := range uint64(200) {
		if err := mem.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := mem.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := runLayouts(mem); len(got) == 0 || slices.ContainsFunc(got, func(k layout.Kind) bool { return k != layout.BTree }) {
		t.Fatalf("memory-only DB serves runs %v, want btree only", got)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}

	// A DB that names a layout keeps it.
	vdir := t.TempDir()
	vdb, err := Open[uint64, uint64](vdir, DBConfig{MemLimit: 64, Store: []Option{WithLayout(layout.VEB)}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range uint64(100) {
		if err := vdb.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := vdb.Close(); err != nil {
		t.Fatal(err)
	}
	if kinds, _ := segLayouts(t, vdir); len(kinds) == 0 || slices.ContainsFunc(kinds, func(k layout.Kind) bool { return k != layout.VEB }) {
		t.Fatalf("WithLayout(VEB) DB wrote segments %v, want veb only", kinds)
	}

	// Build keeps vEB, in memory and in the segment it writes.
	st, err := Build([]uint64{3, 1, 2}, []uint64{30, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if st.Layout() != layout.VEB {
		t.Fatalf("Build laid out %v, want veb", st.Layout())
	}
	var seg bytes.Buffer
	if _, err := st.WriteTo(&seg); err != nil {
		t.Fatal(err)
	}
	hdr, _, err := readSegHead(&seg)
	if err != nil {
		t.Fatal(err)
	}
	if layout.Kind(hdr.Layout) != layout.VEB {
		t.Fatalf("Build's segment header records %v, want veb", layout.Kind(hdr.Layout))
	}
}

// TestDBReopensVEBRuns: a directory whose runs were written as vEB
// reopens under the B-tree default and serves every key, heap-decoded
// and mapped; its next merge folds the mixed vEB/B-tree stack into one
// B-tree run, which serves every key too, before and after a reopen.
func TestDBReopensVEBRuns(t *testing.T) {
	for _, mmap := range []bool{false, true} {
		t.Run(fmt.Sprintf("mmap=%v", mmap), func(t *testing.T) {
			if mmap && !mmapio.Supported {
				t.Skip("platform cannot map files")
			}
			dir := t.TempDir()
			want := map[uint64]uint64{}
			put := func(db *DB[uint64, uint64], from, to, gen uint64) {
				for k := from; k < to; k++ {
					if err := db.Put(k, k*1000+gen); err != nil {
						t.Fatal(err)
					}
					want[k] = k*1000 + gen
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			check := func(db *DB[uint64, uint64], stage string) {
				t.Helper()
				for k := uint64(0); k < 700; k++ {
					v, ok := db.Get(k)
					w, present := want[k]
					if ok != present || v != w {
						t.Fatalf("%s: Get(%d) = %d, %v; want %d, %v", stage, k, v, ok, w, present)
					}
				}
			}

			// Three overlapping vEB runs and a deletion, below the
			// fanout of 4, so no merge runs yet.
			cfg := DBConfig{MemLimit: 1 << 10, Fanout: 4, Mmap: mmap}
			vcfg := cfg
			vcfg.Store = []Option{WithLayout(layout.VEB)}
			db, err := Open[uint64, uint64](dir, vcfg)
			if err != nil {
				t.Fatal(err)
			}
			put(db, 0, 300, 1)
			put(db, 200, 500, 2)
			if err := db.Delete(250); err != nil {
				t.Fatal(err)
			}
			delete(want, 250)
			put(db, 450, 600, 3)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if kinds, _ := segLayouts(t, dir); !slices.Equal(kinds, []layout.Kind{layout.VEB, layout.VEB, layout.VEB}) {
				t.Fatalf("segments %v, want three veb runs", kinds)
			}

			// Reopen under the default: the vEB runs serve as they are.
			if db, err = Open[uint64, uint64](dir, cfg); err != nil {
				t.Fatal(err)
			}
			if got := runLayouts(db); !slices.Equal(got, []layout.Kind{layout.VEB, layout.VEB, layout.VEB}) {
				t.Fatalf("reopened runs %v, want three veb runs", got)
			}
			check(db, "reopened vEB runs")

			// A fourth flush adds a B-tree run and fills the level: the
			// merge writes one B-tree run from the mixed stack.
			put(db, 550, 700, 4)
			if got := runLayouts(db); !slices.Equal(got, []layout.Kind{layout.BTree}) {
				t.Fatalf("runs after the merge %v, want one btree run", got)
			}
			if got := db.Stats().RunLevels; !slices.Equal(got, []int{1}) {
				t.Fatalf("run levels after the merge %v, want [1]", got)
			}
			check(db, "merged B-tree run")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if kinds, bs := segLayouts(t, dir); !slices.Equal(kinds, []layout.Kind{layout.BTree}) || bs[0] != layout.DefaultB {
				t.Fatalf("segments after the merge %v (b=%v), want one btree run with b=%d", kinds, bs, layout.DefaultB)
			}
			if db, err = Open[uint64, uint64](dir, cfg); err != nil {
				t.Fatal(err)
			}
			check(db, "reopened merged run")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
