package store

import (
	"cmp"
	"fmt"
	"math"
	"testing"

	"implicitlayout/internal/filter"
)

// runBloom builds a run filter sized exactly for keys, as the golden
// v2.1 run segment was written with.
func runBloom[K cmp.Ordered](keys []K) *filter.Bloom {
	b := filter.New(len(keys))
	for _, k := range keys {
		b.Add(keyHash(k))
	}
	return b
}

// TestKeyHashDeterministicAcrossKinds pins the property the persisted
// bloom filters depend on: a named type must hash exactly like its
// underlying primitive (the reflection fallback and the type switch
// must agree), because a filter built in one process is consulted in
// another after a segment round trip.
func TestKeyHashDeterministicAcrossKinds(t *testing.T) {
	type myInt int64
	type myUint uint32
	type myFloat float64
	type myString string
	if keyHash(myInt(-42)) != keyHash(int64(-42)) {
		t.Error("named int64 hashes differently from int64")
	}
	if keyHash(myUint(42)) != keyHash(uint64(42)) {
		t.Error("named uint32 hashes differently from its widened value")
	}
	if keyHash(myFloat(3.5)) != keyHash(float64(3.5)) {
		t.Error("named float64 hashes differently from float64")
	}
	if keyHash(myString("abc")) != keyHash("abc") {
		t.Error("named string hashes differently from string")
	}
	// Signed values widen through uint64 conversion in both paths.
	if keyHash(int8(-1)) != keyHash(int64(-1)) {
		t.Error("int8(-1) and int64(-1) disagree")
	}
}

// TestKeyHashNegativeZero: -0.0 == +0.0 as keys, so they must hash
// identically or a filter could split one logical key across two bit
// patterns.
func TestKeyHashNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if keyHash(negZero) != keyHash(0.0) {
		t.Error("float64 -0 and +0 hash differently")
	}
	if keyHash(float32(math.Copysign(0, -1))) != keyHash(float32(0)) {
		t.Error("float32 -0 and +0 hash differently")
	}
	type myF float64
	if keyHash(myF(negZero)) != keyHash(myF(0)) {
		t.Error("named float -0 and +0 hash differently")
	}
}

// TestKeyHashStableValues pins a few hash outputs so an accidental
// change to the mixing constants — which would orphan every persisted
// filter — fails loudly instead of silently degrading to 100% false
// positives on reopened segments.
func TestKeyHashStableValues(t *testing.T) {
	if got, want := keyHash(uint64(0)), mix64(0); got != want {
		t.Errorf("keyHash(0) = %#x, want mix64(0) = %#x", got, want)
	}
	if got := keyHash(uint64(1)); got != 0xB456BCFC34C2CB2C {
		t.Errorf("keyHash(uint64(1)) = %#x changed; persisted filters depend on this value", got)
	}
	if got := keyHash(""); got != 0xEFD01F60BA992926 {
		t.Errorf("keyHash(\"\") = %#x changed; persisted filters depend on this value", got)
	}
}

// TestDBReadAmp exercises the read path's filter gate end to end: a DB
// with several disjoint-range runs must answer out-of-range lookups
// with fence skips, absent in-range lookups mostly with bloom skips,
// and present keys by probing — with the three counters accounting for
// every (lookup, run) pair.
func TestDBReadAmp(t *testing.T) {
	db, err := NewDB[uint64, uint64](DBConfig{MemLimit: 100, Fanout: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Three runs with disjoint key ranges, even keys only — so every
	// odd key is an in-range miss the fences cannot disprove.
	const runSize = 1000
	for r := 0; r < 3; r++ {
		for i := 0; i < runSize; i++ {
			if err := db.Put(uint64(2*(r*runSize+i)), uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Stats().Runs(); got < 3 {
		t.Fatalf("expected >= 3 runs, got %d", got)
	}
	runs := db.Stats().Runs()

	// Out-of-range misses: every run's fences disprove them.
	for i := 0; i < 100; i++ {
		if _, ok := db.Get(uint64(1_000_000 + i)); ok {
			t.Fatal("phantom hit")
		}
	}
	st := db.Stats()
	if st.RunsSkippedFence != uint64(100*runs) {
		t.Errorf("out-of-range misses: fence skips = %d, want %d", st.RunsSkippedFence, 100*runs)
	}
	if st.RunsProbed != 0 || st.RunsSkippedBloom != 0 {
		t.Errorf("out-of-range misses probed %d runs, bloom-skipped %d; want 0", st.RunsProbed, st.RunsSkippedBloom)
	}

	// Present keys: each run's keys pass its own filter (no false
	// negatives ever), and the walk stops at the first hit — key k in
	// run r is preceded by the newer runs, each of which may skip it.
	for i := 0; i < 100; i++ {
		k := uint64(2 * (i * 29 % (3 * runSize)))
		if _, ok := db.Get(k); !ok {
			t.Fatalf("key %d lost", k)
		}
	}
	st2 := db.Stats()
	if st2.RunsProbed < 100 {
		t.Errorf("present keys probed %d runs, want >= 100 (one hit each)", st2.RunsProbed)
	}

	// In-range misses: the fences cannot help (the key interval is
	// covered), so skipping is the bloom filter's job. With ~10
	// bits/key the expected false-positive rate is 1-2%; even 100× that
	// would pass this loose bound — what cannot happen is the filter
	// doing nothing.
	const misses = 2000
	before := db.Stats()
	for i := 0; i < misses; i++ {
		// Odd keys: interleaved between stored ones — in range, never
		// stored.
		if _, ok := db.Get(uint64(2*i + 1)); ok {
			t.Fatal("phantom hit")
		}
	}
	after := db.Stats()
	probed := after.RunsProbed - before.RunsProbed
	skipped := after.RunsSkippedBloom - before.RunsSkippedBloom
	fenced := after.RunsSkippedFence - before.RunsSkippedFence
	if probed+skipped+fenced != uint64(misses*runs) {
		t.Errorf("counters do not account for every (lookup, run) pair: %d+%d+%d != %d",
			probed, skipped, fenced, misses*runs)
	}
	// Cross-check the observed false-positive rate against the filter's
	// design point (1-2%): in-range misses that were neither fenced nor
	// bloom-skipped are exactly the bloom false positives.
	if denom := probed + skipped; denom > 0 {
		if fpr := float64(probed) / float64(denom); fpr > 0.10 {
			t.Errorf("bloom false-positive rate %.3f over the 10%% cross-check bound", fpr)
		}
	}

	// GetBatch must advance the same counters by the same accounting.
	b0 := db.Stats()
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = uint64(1_000_000 + i) // above every run's max key
	}
	_, found := db.GetBatch(keys, 2)
	for i, f := range found {
		if f {
			t.Fatalf("GetBatch phantom hit at %d", i)
		}
	}
	b1 := db.Stats()
	dFence := b1.RunsSkippedFence - b0.RunsSkippedFence
	if dFence != uint64(len(keys)*runs) {
		t.Errorf("GetBatch out-of-range misses: fence skips = %d, want %d", dFence, len(keys)*runs)
	}
}

// TestDBGetBatchFilteredCorrectness drives GetBatch through the filter
// gate with a mix of hits, misses, and tombstones across multiple runs
// and checks every answer against Get — the filters must change cost,
// never answers.
func TestDBGetBatchFilteredCorrectness(t *testing.T) {
	db, err := NewDB[uint64, uint64](DBConfig{MemLimit: 50, Fanout: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for r := 0; r < 4; r++ {
		for i := 0; i < 200; i++ {
			k := uint64(r*100 + i) // overlapping ranges across runs
			if k%13 == 0 {
				err = db.Delete(k)
			} else {
				err = db.Put(k, k*10+uint64(r))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]uint64, 0, 800)
	for k := uint64(0); k < 800; k++ {
		keys = append(keys, k)
	}
	vals, found := db.GetBatch(keys, 2)
	for i, k := range keys {
		wantV, wantOK := db.Get(k)
		if found[i] != wantOK || (wantOK && vals[i] != wantV) {
			t.Fatalf("GetBatch(%d) = (%d, %v), Get = (%d, %v)", k, vals[i], found[i], wantV, wantOK)
		}
	}
}

// TestFilterSurvivesReopen checks the durable half of the filter story:
// after Close and a cold-serve (mmap) reopen, the restored filters keep
// producing skips — the v2.1 segment round trip carries the bloom
// bits, and fences are recovered from the permuted arrays by rank
// arithmetic.
func TestFilterSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	open := func(mmapped bool) *DB[uint64, uint64] {
		db, err := Open[uint64, uint64](dir, DBConfig{MemLimit: 100, Fanout: 100, Mmap: mmapped})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open(false)
	// Even keys only, so odd keys are in-range misses for the blooms.
	for r := 0; r < 3; r++ {
		for i := 0; i < 500; i++ {
			if err := db.Put(uint64(2*(r*500+i)), uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for _, mmapped := range []bool{false, true} {
		t.Run(fmt.Sprintf("mmap=%v", mmapped), func(t *testing.T) {
			db := open(mmapped)
			defer db.Close()
			runs := db.Stats().Runs()
			if runs < 3 {
				t.Fatalf("reopened with %d runs, want >= 3", runs)
			}
			for i := 0; i < 100; i++ {
				if _, ok := db.Get(uint64(100_000 + i)); ok {
					t.Fatal("phantom hit after reopen")
				}
			}
			st := db.Stats()
			if st.RunsSkippedFence != uint64(100*runs) {
				t.Errorf("reopened fence skips = %d, want %d", st.RunsSkippedFence, 100*runs)
			}
			// In-range misses (odd keys): restored blooms must keep
			// skipping.
			before := db.Stats()
			for i := 0; i < 500; i++ {
				if _, ok := db.Get(uint64(2*i + 1)); ok {
					t.Fatal("phantom hit after reopen")
				}
			}
			after := db.Stats()
			if skipped := after.RunsSkippedBloom - before.RunsSkippedBloom; skipped == 0 {
				t.Error("reopened filters produced zero bloom skips on in-range misses")
			}
			// And every stored key still answers.
			for i := 0; i < 1500; i += 31 {
				if _, ok := db.Get(uint64(2 * i)); !ok {
					t.Fatalf("key %d lost after reopen", 2*i)
				}
			}
		})
	}
}
