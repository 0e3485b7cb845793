// Package store is the serving layer built on the paper's implicit
// search-tree layouts. It offers two data structures: the immutable
// sharded Store, and the writable DB that stacks an LSM-style write path
// on top of it. See ARCHITECTURE.md at the repository root for the layer
// diagram and data flows.
//
// # Store: the static record store
//
// A Store owns its records end to end. Build ingests unsorted key–value
// pairs and runs the parallel build pipeline — one stable parallel sort
// by key (radix for integer and float keys: one MSD scatter, then each
// cache-sized bucket sorted on the few top digits that separate its
// records and finished by insertion; merge for strings; none for sorted
// input), duplicate-key resolution, range partition into
// shards, then an in-place layout.Write of every shard
// concurrently into the configured layout (vEB by default), values
// moving with their keys, so each value sits at its key's position.
// Queries route through a fence-key router (the smallest key of each
// shard, read off its layout by rank) and run the layout's
// search kernel inside the owning shard; Get returns the stored value,
// GetBatch fans a query batch out over a bounded worker pool and returns
// every value plus per-shard hit statistics, and Range and Scan stream
// records in globally ascending key order by walking the shards through
// their fence keys — without ever unpermuting.
//
// Keys-only use is the Set alias (a Store with struct{} values) built by
// BuildSet. A built Store is immutable — snapshot semantics. Any number
// of reader goroutines may share one Store with no synchronization, and
// Export recovers the sorted records via layout.Read without
// disturbing the servable shards.
//
// # DB: the writable store
//
// A DB accepts Put and Delete at any time: writes land in a mutable
// memtable, a background compactor flushes full memtables into immutable
// level-0 runs — each run a sharded Store whose payloads carry a
// tombstone bit — and merges runs level to level as they accumulate.
// Reads resolve versions newest-first across memtable and runs, and
// DB.Range/DB.Scan k-way merge all layers into one ordered stream of
// live records. The paper's cheap parallel construction is what makes
// "rebuild a search layout at every flush" a write path rather than a
// maintenance outage. Duplicate handling is always KeepLast in the DB
// (overwrite semantics); see the decision table in README.md for how
// the Store policies interact with tombstones.
//
// # Durability
//
// Open backs a DB with a directory and makes the write path crash-safe:
// Put and Delete are appended to a write-ahead log before they are
// acknowledged, flushed runs are persisted as checksummed segment files
// holding the laid-out shard arrays verbatim (an implicit layout is a
// pointer-free array, so the laid-out array is the on-disk format and
// reopening never re-sorts or re-lays-out), and an atomically rewritten
// manifest names the live segments. Reopening the directory replays any
// logs a crash left behind and serves the whole acknowledged history.
// The same codec is public on the static store as Store.WriteTo and
// ReadStore. Formats and the recovery protocol are specified in
// ARCHITECTURE.md ("On-disk layout and crash recovery").
//
// Fixed-width records (ints, uints, floats) are written in a raw
// 64-byte-aligned segment format that can be served without decoding:
// OpenStore with WithMmap — or DBConfig.Mmap for a durable DB — maps
// segment files read-only and serves the laid-out arrays in place from
// the OS page cache, so cold opens are O(shards) metadata work and the
// servable dataset is not bounded by the heap. See "Zero-copy serving"
// in ARCHITECTURE.md.
package store

import (
	"cmp"
	"fmt"
	"runtime"

	"implicitlayout/internal/filter"
	"implicitlayout/internal/par"
	"implicitlayout/layout"
	"implicitlayout/search"
)

// DuplicatePolicy selects how Build resolves records with equal keys.
// Resolution happens after the stable sort, so "first" and "last" refer
// to input order.
type DuplicatePolicy int

const (
	// KeepLast keeps, for each key, the value of its last occurrence in
	// the input — the overwrite semantics of loading a map. The default.
	KeepLast DuplicatePolicy = iota
	// KeepFirst keeps the value of the first occurrence in the input.
	KeepFirst
	// KeepAll keeps every occurrence (multiset semantics). Get and
	// GetBatch return the value of an unspecified occurrence of the key;
	// Range, Scan, and Export yield all of them, equal keys in input
	// order.
	KeepAll
	// Reject makes Build fail with an error naming the first duplicated
	// key.
	Reject
)

// String returns the policy name.
func (d DuplicatePolicy) String() string {
	switch d {
	case KeepLast:
		return "keep-last"
	case KeepFirst:
		return "keep-first"
	case KeepAll:
		return "keep-all"
	case Reject:
		return "reject"
	}
	return fmt.Sprintf("DuplicatePolicy(%d)", int(d))
}

// Config collects the build parameters; zero fields select defaults.
type Config struct {
	// Shards is the number of range partitions (default: GOMAXPROCS,
	// clamped to the record count so no shard is empty).
	Shards int
	// Layout is the per-shard memory layout (default layout.VEB).
	Layout layout.Kind
	// B is the B-tree node capacity (default layout.DefaultB); ignored by
	// the BST and vEB layouts.
	B int
	// Workers bounds the build pipeline's parallelism (values below 1
	// select GOMAXPROCS).
	Workers int
	// Duplicates selects the duplicate-key policy (default KeepLast).
	Duplicates DuplicatePolicy
	// Mmap asks OpenStore to serve a raw (v2 or v2.1) segment file from
	// a read-only memory mapping instead of decoding it onto the heap:
	// open cost drops from O(data) to O(shards), and the OS page cache —
	// not the Go heap — holds the working set. A durable DB sets it from
	// DBConfig.Mmap for every read of a run segment, at Open and after
	// each flush, recovery or merge writes one. Ignored by Build (a
	// built store is heap-born by construction) and silently degraded
	// to heap decoding when the platform cannot map files or the
	// segment is v1 (gob). See WithMmap.
	Mmap bool
}

// Option configures Build.
type Option func(*Config)

// WithShards sets the shard count (values below 1 select GOMAXPROCS).
func WithShards(s int) Option { return func(c *Config) { c.Shards = s } }

// WithLayout selects the per-shard layout (default layout.VEB).
func WithLayout(k layout.Kind) Option { return func(c *Config) { c.Layout = k } }

// WithB sets the B-tree node capacity (default layout.DefaultB).
func WithB(b int) Option { return func(c *Config) { c.B = b } }

// WithWorkers bounds the build parallelism (values below 1 select
// GOMAXPROCS).
func WithWorkers(p int) Option { return func(c *Config) { c.Workers = p } }

// WithDuplicates selects the duplicate-key policy (default KeepLast).
func WithDuplicates(d DuplicatePolicy) Option { return func(c *Config) { c.Duplicates = d } }

// WithMmap selects zero-copy serving for OpenStore: a raw v2/v2.1 segment
// file is mapped read-only and its shard arrays are served in place from
// the page cache, never decoded onto the heap. Platforms without mmap
// and v1 (gob) segments fall back to heap decoding. See Store.Mapped and
// Store.Release for the mapping lifecycle.
func WithMmap(on bool) Option { return func(c *Config) { c.Mmap = on } }

// newConfig applies opts over the defaults, fills every zero field with
// its default and checks the result: the one resolution behind Build,
// Rebuild and Open. Each build clamps the shard count to its record
// count (forRecords).
func newConfig(opts []Option) (Config, error) {
	c := Config{Layout: layout.VEB}
	for _, o := range opts {
		o(&c)
	}
	if c.Shards < 1 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.B < 1 {
		c.B = layout.DefaultB
	}
	return c, checkConfig(c)
}

// forRecords clamps the shard count to n records, so no shard is empty.
func (c Config) forRecords(n int) Config {
	c.Shards = max(1, min(c.Shards, n))
	return c
}

// shard is one range partition: a laid-out slice of the store's backing
// key array plus its offset in sorted order. Values are not stored here —
// the value of the key at shard-local position p lives at the same
// backing-array position, vals[off+p], because the layout write moved
// both arrays together.
type shard[K cmp.Ordered] struct {
	idx *search.Index[K]
	off int // global sorted rank of the shard's first key
}

// Store is an immutable sharded key–value index over a static record set.
// It is safe for concurrent use by any number of reader goroutines. V may
// be any type; a keys-only Store (the Set alias) carries no value array
// at all.
//
// The shard arrays are held per shard, not as one assumed-contiguous
// allocation: a Build-born store's shards are windows into one heap
// array, a decoded segment's or a heap DB run's are one heap slice
// each, and a store opened with WithMmap serves each shard directly
// from its 64-byte-aligned block of a mapped segment file. Every query,
// iteration, and export path goes through the per-shard views, so the
// search kernels never know which backing they are reading.
type Store[K cmp.Ordered, V any] struct {
	cfg     Config
	n       int  // total records across shards
	hasVals bool // false for keys-only stores (no value arrays at all)
	shards  []shard[K]
	svals   [][]V    // svals[i][p] = value of shard i's key at position p; nil when !hasVals
	fences  []K      // fences[i] = smallest key of shard i (sorted ascending)
	maxKey  K        // largest key in the store (fences[0] is the smallest)
	back    *backing // non-nil when the shard arrays view a mapped segment
	// bloom is the optional per-run key filter the DB's read path
	// consults before descending (see filter.go). Build leaves it nil;
	// the DB attaches one to every run it builds, and the v2.1 segment
	// codec persists and restores it.
	bloom *filter.Bloom
}

// Set is a keys-only Store: the value type is struct{} and no value
// array is allocated. It is the PR 1 key-set API under the record store.
type Set[K cmp.Ordered] = Store[K, struct{}]

// Build ingests parallel slices of keys and values (in any order;
// vals[i] is the payload of keys[i]), runs the parallel build pipeline,
// and returns the immutable Store. Both input slices are copied, never
// mutated. A nil vals builds a keys-only store (see BuildSet); otherwise
// len(vals) must equal len(keys).
//
// Records with equal keys are resolved by the configured
// DuplicatePolicy, KeepLast by default: for each key the value of its
// last occurrence in the input wins, like loading a map.
//
// Keys must be totally ordered by <. Floating-point keys sort in
// cmp.Compare order: every NaN first, in input order, and -0 equal to
// +0 (so the two resolve as one key). Export stays correct with NaNs, but the layout query kernels compare with <
// like every searcher in this repository, so queries touching a shard
// that holds a NaN are undefined — filter NaNs out upstream. Duplicate
// resolution compares with ==, which never merges NaNs.
func Build[K cmp.Ordered, V any](keys []K, vals []V, opts ...Option) (*Store[K, V], error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("store: cannot build from an empty key set")
	}
	if vals != nil && len(vals) != len(keys) {
		return nil, fmt.Errorf("store: %d keys but %d values", len(keys), len(vals))
	}
	c, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	c = c.forRecords(len(keys))
	// Stage 1: one stable parallel sort (sortByKey) straight from the
	// caller's slices into the arrays the store will own.
	ownedK := make([]K, len(keys))
	var ownedV []V
	if vals != nil {
		ownedV = make([]V, len(vals))
	}
	runner := par.New(c.Workers)
	sortByKey(runner, keys, vals, ownedK, ownedV)

	// Stage 2: duplicate resolution on the sorted records. The stable
	// sort left equal keys in input order, so first/last occurrence is
	// first/last of each equal run. One parallel read-only scan finds the
	// first equal pair; records are compacted only from there.
	if c.Duplicates != KeepAll {
		if first := firstEqual(runner, ownedK); first < len(ownedK) {
			if c.Duplicates == Reject {
				return nil, fmt.Errorf("store: duplicate key %v", ownedK[first])
			}
			ownedK, ownedV = dedupe(ownedK, ownedV, first, c.Duplicates == KeepLast)
		}
	}
	n := len(ownedK)
	c = c.forRecords(n) // dedupe may have shrunk below the shard count

	// Stage 3: range partition. Equal-size index ranges of the sorted
	// array are contiguous key ranges, so the partition is by key range
	// with near-perfect balance.
	shardKeys, shardVals := make([][]K, c.Shards), make([][]V, c.Shards)
	for i := range shardKeys {
		lo, hi := i*n/c.Shards, (i+1)*n/c.Shards
		shardKeys[i] = ownedK[lo:hi:hi]
		if ownedV != nil {
			shardVals[i] = ownedV[lo:hi:hi]
		}
	}

	// Stage 4: write every shard's layout concurrently, values moving
	// with their keys. The writer is serial, so at most c.Workers shards
	// are laid out at once, each on one worker.
	runner.Tasks(c.Shards, func(i int, _ par.Runner) {
		layout.Write(c.Layout, shardKeys[i], shardVals[i], c.B)
	})
	if ownedV == nil {
		shardVals = nil
	}
	return newStore(c, shardKeys, shardVals), nil
}

// checkConfig rejects the build parameters no layout, node capacity or
// duplicate policy answers to — the one check behind every resolved
// Config and every segment header.
func checkConfig(c Config) error {
	if c.B < 1 {
		return fmt.Errorf("store: B-tree node capacity %d < 1", c.B)
	}
	switch c.Layout {
	case layout.Sorted, layout.BST, layout.BTree, layout.VEB, layout.Hier:
	default:
		return fmt.Errorf("store: unknown layout %v", c.Layout)
	}
	switch c.Duplicates {
	case KeepLast, KeepFirst, KeepAll, Reject:
	default:
		return fmt.Errorf("store: unknown duplicate policy %v", c.Duplicates)
	}
	return nil
}

// newStore assembles a Store around laid-out shard arrays — the one
// constructor behind Build, the segment readers and the DB's runs.
// keys[i] is shard i in cfg.Layout and vals[i] its values, position for
// position; nil vals makes a keys-only store. The routing metadata comes
// by rank arithmetic over the laid-out arrays — each shard's fence is
// its in-order rank 0, maxKey the last shard's last rank — so no sorted
// copy of a shard is needed. The caller sets the backing and the bloom
// filter, if any.
func newStore[K cmp.Ordered, V any](cfg Config, keys [][]K, vals [][]V) *Store[K, V] {
	cfg.Shards = len(keys)
	s := &Store[K, V]{
		cfg:     cfg,
		hasVals: vals != nil,
		shards:  make([]shard[K], len(keys)),
		svals:   vals,
		fences:  make([]K, len(keys)),
	}
	for i, k := range keys {
		s.shards[i] = shard[K]{off: s.n, idx: search.NewIndex(k, cfg.Layout, cfg.B)}
		s.fences[i] = s.shards[i].idx.AtRank(0)
		s.n += len(k)
	}
	if len(keys) > 0 {
		last := s.shards[len(keys)-1].idx
		s.maxKey = last.AtRank(last.Len() - 1)
	}
	return s
}

// BuildSet builds a keys-only store — the PR 1 key-set pipeline. All
// Options apply; the duplicate policy defaults to KeepLast, so a Set
// deduplicates like a set unless WithDuplicates(KeepAll) asks for
// multiset behavior.
func BuildSet[K cmp.Ordered](keys []K, opts ...Option) (*Set[K], error) {
	return Build[K, struct{}](keys, nil, opts...)
}

// firstEqual returns the smallest i > 0 with keys[i] == keys[i-1], or
// len(keys) when no neighbours are equal. Each worker scans one block of
// neighbour pairs, stopping at its first equal one.
func firstEqual[K cmp.Ordered](r par.Runner, keys []K) int {
	n := len(keys)
	p := r.P()
	if n < sortSerialBelow {
		p = 1
	}
	found := make([]int, p)
	r.Tasks(p, func(w int, _ par.Runner) {
		found[w] = n
		for i, hi := max(1, w*n/p), (w+1)*n/p; i < hi; i++ {
			if keys[i] == keys[i-1] {
				found[w] = i
				return
			}
		}
	})
	for _, i := range found {
		if i < n {
			return i
		}
	}
	return n
}

// dedupe compacts equal-key runs of the sorted records in place, keeping
// the first element of each run (or the last, when keepLast). from is
// the first index whose key equals its predecessor's: the records before
// it stay where they are. vals may be nil.
func dedupe[K cmp.Ordered, V any](keys []K, vals []V, from int, keepLast bool) ([]K, []V) {
	w := from
	for i := from; i < len(keys); i++ {
		if keys[i] == keys[w-1] {
			if keepLast && vals != nil {
				vals[w-1] = vals[i]
			}
			continue
		}
		keys[w] = keys[i]
		if vals != nil {
			vals[w] = vals[i]
		}
		w++
	}
	if vals == nil {
		return keys[:w], nil
	}
	return keys[:w], vals[:w]
}

// Len returns the number of records the store serves (after duplicate
// resolution).
func (s *Store[K, V]) Len() int { return s.n }

// HasValues reports whether the store carries value payloads; a Set
// built by BuildSet does not.
func (s *Store[K, V]) HasValues() bool { return s.hasVals }

// Shards returns the shard count.
func (s *Store[K, V]) Shards() int { return len(s.shards) }

// Layout returns the per-shard layout kind.
func (s *Store[K, V]) Layout() layout.Kind { return s.cfg.Layout }

// B returns the B-tree node capacity shards were built with.
func (s *Store[K, V]) B() int { return s.cfg.B }

// Duplicates returns the duplicate-key policy the store was built with.
func (s *Store[K, V]) Duplicates() DuplicatePolicy { return s.cfg.Duplicates }

// Fences returns the router's fence keys: Fences()[i] is the smallest key
// of shard i. The result is a copy and ascends.
func (s *Store[K, V]) Fences() []K {
	f := make([]K, len(s.fences))
	copy(f, s.fences)
	return f
}

// ShardLen returns the number of records in shard i.
func (s *Store[K, V]) ShardLen(i int) int { return s.shards[i].idx.Len() }

// route returns the shard that would hold x: the largest i with
// fences[i] <= x, or -1 when x precedes every key in the store.
func (s *Store[K, V]) route(x K) int {
	return search.PredecessorBinary(s.fences, x)
}
