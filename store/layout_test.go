package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"implicitlayout/internal/filter"
	"implicitlayout/layout"
	"implicitlayout/perm"
)

// permuted returns the shards Build cuts from the sorted records, each
// laid out by the paper's in-place permutation instead of the layout
// writer: the reference every written shard must equal bit for bit.
func permuted(cfg Config, keys []uint64, vals []int64) ([][]uint64, [][]int64) {
	n := len(keys)
	sk, sv := make([][]uint64, cfg.Shards), make([][]int64, cfg.Shards)
	for i := range sk {
		lo, hi := i*n/cfg.Shards, (i+1)*n/cfg.Shards
		sk[i] = slices.Clone(keys[lo:hi])
		if vals == nil {
			perm.Permute(sk[i], cfg.Layout, perm.CycleLeader, perm.WithB(cfg.B))
			continue
		}
		sv[i] = slices.Clone(vals[lo:hi])
		perm.PermuteWith(sk[i], sv[i], cfg.Layout, perm.CycleLeader, perm.WithB(cfg.B))
	}
	if vals == nil {
		sv = nil
	}
	return sk, sv
}

func segmentHash(t *testing.T, s *Store[uint64, int64]) [32]byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return sha256.Sum256(buf.Bytes())
}

// TestBuildMatchesPermute pins the layout writer behind Build to the
// paper's permutation: for every layout, node capacity and shard count,
// with values and keys only, every shard array Build writes equals
// perm.PermuteWith (or perm.Permute) of the same sorted shard, the
// segment Store.WriteTo emits hashes the same as one written from the
// permuted shards, and Export restores the sorted input. Two shards run
// two writers at once, so -race checks the shared vEB rank tables.
func TestBuildMatchesPermute(t *testing.T) {
	const n = 1<<15 + 3001
	rng := rand.New(rand.NewSource(11))
	sortedK := make([]uint64, n)
	sortedV := make([]int64, n)
	for i := range sortedK {
		sortedK[i], sortedV[i] = uint64(i)*7919+3, int64(i)*3-5
	}
	inK, inV := slices.Clone(sortedK), slices.Clone(sortedV)
	rng.Shuffle(n, func(i, j int) { inK[i], inK[j], inV[i], inV[j] = inK[j], inK[i], inV[j], inV[i] })
	for _, kind := range []layout.Kind{layout.Sorted, layout.BST, layout.BTree, layout.VEB, layout.Hier} {
		for _, b := range []int{8, 3} {
			for _, shards := range []int{1, 2} {
				for _, withVals := range []bool{true, false} {
					name := fmt.Sprintf("%v/b=%d/shards=%d/vals=%v", kind, b, shards, withVals)
					var vals, wantV []int64
					if withVals {
						vals, wantV = inV, sortedV
					}
					st, err := Build(inK, vals, WithLayout(kind), WithB(b), WithShards(shards), WithWorkers(2))
					if err != nil {
						t.Fatalf("%s: Build: %v", name, err)
					}
					pk, pv := permuted(st.cfg, sortedK, wantV)
					for i := range pk {
						if !slices.Equal(st.shards[i].idx.Data(), pk[i]) {
							t.Fatalf("%s: shard %d keys differ from perm's layout", name, i)
						}
						if withVals && !slices.Equal(st.svals[i], pv[i]) {
							t.Fatalf("%s: shard %d values differ from perm's layout", name, i)
						}
					}
					if got, want := segmentHash(t, st), segmentHash(t, newStore(st.cfg, pk, pv)); got != want {
						t.Fatalf("%s: WriteTo bytes differ from a permute-built store's", name)
					}
					gotK, gotV := st.Export()
					if !slices.Equal(gotK, sortedK) || !slices.Equal(gotV, wantV) {
						t.Fatalf("%s: Export is not the sorted input", name)
					}
				}
			}
		}
	}
}

// TestLayShardMatchesPermute pins the layout step of every DB run shard
// (flush, recovery and merge) to the paper's permutation, across shards
// of changing size.
func TestLayShardMatchesPermute(t *testing.T) {
	for _, kind := range []layout.Kind{layout.Sorted, layout.BST, layout.BTree, layout.VEB, layout.Hier} {
		cfg := Config{Layout: kind, B: 5, Workers: 2}
		for _, n := range []int{1, 2, 1000, 1<<15 + 17, 777} {
			keys := make([]uint64, n)
			vals := make([]mval[int64], n)
			for i := range keys {
				keys[i], vals[i] = uint64(2*i+1), mval[int64]{val: int64(i), dead: i%3 == 0}
			}
			wantK, wantV := slices.Clone(keys), slices.Clone(vals)
			perm.PermuteWith(wantK, wantV, kind, perm.CycleLeader, perm.WithB(cfg.B))
			bloom := filter.New(n)
			layShard(cfg, bloom, keys, vals)
			if !slices.Equal(keys, wantK) || !slices.Equal(vals, wantV) {
				t.Fatalf("%v n=%d: layShard differs from perm's layout", kind, n)
			}
			for _, k := range keys {
				if !bloom.MayContain(keyHash(k)) {
					t.Fatalf("%v n=%d: key %d missing from the run's bloom filter", kind, n, k)
				}
			}
		}
	}
}
