// Package implicitlayout reproduces "Beyond Binary Search: Parallel
// In-Place Construction of Implicit Search Tree Layouts" (Berney, 2018):
// parallel in-place algorithms that permute a sorted array into the
// level-order BST (Eytzinger), level-order B-tree, and van Emde Boas
// memory layouts, together with the query engines, cost-model simulators
// (PEM I/O, GPU), and the benchmark harness that regenerates every table
// and figure of the paper's evaluation.
//
// The repository treats layouts as indexes over key–value records, not
// bare key sets: perm.PermuteWith moves a value slice by the exact same
// permutation as its keys, search iterates records in sorted order
// directly over any layout, and store serves key–value records — as
// immutable sharded snapshots (Store) and as a writable LSM-style store
// (DB) whose flushes and compactions are the paper's parallel
// construction run again and again.
//
// Public API:
//
//   - layout: layout definitions, index arithmetic (including in-order
//     rank -> array position), reference builders;
//   - perm:   the in-place parallel permutations (the paper's
//     contribution), keys-only (Permute/Unpermute) and payload-carrying
//     (PermuteWith/UnpermuteWith);
//   - search: queries on every layout — exact, predecessor, successor,
//     rank access, and ordered Range/Scan iteration without unpermuting;
//   - store:  the serving layer. Store is the static sharded key–value
//     snapshot — parallel build pipeline (stable sort: LSD radix for
//     integer and float keys, merge sort for strings, none for sorted
//     input; duplicate-key resolution, range partition, concurrent
//     payload-carrying permute)
//     plus a concurrent, batched query engine with value-returning
//     Get/GetBatch and cross-shard ordered Range/Scan streaming (Set is
//     the keys-only alias). DB is the writable store on top: memtable
//     Put/Delete with tombstones, background flush into leveled
//     implicit-layout runs, tiered compaction, and atomic-snapshot reads
//     that never block on writers;
//   - bench:  experiment runners for the paper's tables and figures and
//     the store serving benchmarks, read-only and mixed read/write
//     (text, CSV, and JSON output).
//
// See README.md for a tour and quickstart, and ARCHITECTURE.md for the
// layer diagram, the build and Put→flush→compact data flows, and the
// snapshot/epoch semantics.
package implicitlayout
