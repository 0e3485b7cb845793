package store

import (
	"implicitlayout/internal/par"
	"implicitlayout/layout"
)

// Export returns the store's records in ascending key order (vals is nil
// for keys-only stores). Each shard is read back to sorted order
// (layout.Read) straight into its slice of the output, concurrently;
// concatenating the shards in fence order is already globally sorted
// because the build partitioned by key range. layout.Read never writes
// its source, so the servable shards are never disturbed — a Store stays
// a consistent snapshot for its readers while (and after) it is
// exported, and a read-only mapping reads like a heap shard.
//
// The returned slices are always freshly allocated heap memory, never
// aliases of the store's shard arrays. For a mapped store this is a hard
// requirement, not a courtesy: it is what lets a compaction consume a
// mapped run and outlive the moment its mapping is released — the
// exported records own their bytes.
func (s *Store[K, V]) Export() (keys []K, vals []V) {
	keys = make([]K, s.n)
	if s.hasVals {
		vals = make([]V, s.n)
	}
	r := par.New(s.cfg.Workers)
	r.Tasks(len(s.shards), func(i int, _ par.Runner) {
		sh := s.shards[i]
		lo, hi := sh.off, sh.off+sh.idx.Len()
		var dstV, srcV []V
		if vals != nil {
			dstV, srcV = vals[lo:hi], s.svals[i]
		}
		layout.Read(s.cfg.Layout, keys[lo:hi], dstV, sh.idx.Data(), srcV, s.cfg.B)
	})
	return keys, vals
}

// Rebuild constructs a new Store over the same record set with different
// parameters (layout, shard count, B, ...), leaving the receiver intact:
// the snapshot-swap primitive a serving process uses to migrate layouts
// with zero reader downtime. opts apply on top of the receiver's own
// build parameters.
func (s *Store[K, V]) Rebuild(opts ...Option) (*Store[K, V], error) {
	own := func(c *Config) { *c = s.cfg }
	keys, vals := s.Export()
	return Build(keys, vals, append([]Option{own}, opts...)...)
}
