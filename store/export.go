package store

import (
	"implicitlayout/internal/par"
	"implicitlayout/perm"
)

// Export returns the store's records in ascending key order (vals is nil
// for keys-only stores). Each shard is copied and inverted with
// perm.UnpermuteWith concurrently; concatenating the shards in fence
// order is already globally sorted because the build partitioned by key
// range. The servable shards are never disturbed — a Store stays a
// consistent snapshot for its readers while (and after) it is exported.
//
// The returned slices are always freshly allocated heap memory, never
// aliases of the store's shard arrays. For a mapped store this is a hard
// requirement, not a courtesy: the copy happens before the in-place
// unpermute (a read-only mapping cannot be permuted), and it is what
// lets a compaction consume a mapped run and outlive the moment its
// mapping is released — the exported records own their bytes.
func (s *Store[K, V]) Export() (keys []K, vals []V) {
	keys = make([]K, s.n)
	if s.hasVals {
		vals = make([]V, s.n)
	}
	r := par.New(s.cfg.Workers)
	r.Tasks(len(s.shards), func(i int, sub par.Runner) {
		sh := s.shards[i]
		lo, hi := sh.off, sh.off+sh.idx.Len()
		dstK := keys[lo:hi]
		copy(dstK, sh.idx.Data())
		var err error
		if vals == nil {
			err = perm.Unpermute(dstK, s.cfg.Layout,
				perm.WithWorkers(sub.P()), perm.WithB(s.cfg.B))
		} else {
			dstV := vals[lo:hi]
			copy(dstV, s.svals[i])
			err = perm.UnpermuteWith(dstK, dstV, s.cfg.Layout,
				perm.WithWorkers(sub.P()), perm.WithB(s.cfg.B))
		}
		if err != nil {
			// Build validated the layout kind, so inversion cannot fail.
			panic("store: " + err.Error())
		}
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
