// Implicitlint is the project's static-analysis suite: five analyzers
// that machine-check the engine invariants PRs 4–5 established, so
// regressions fail CI at the offending line instead of waiting for a
// reviewer to remember them.
//
// Run it through go vet, which plans the build and feeds each package's
// files and export data to the tool:
//
//	go build -o /tmp/implicitlint ./cmd/implicitlint
//	go vet -vettool=/tmp/implicitlint ./...
//
// scripts/lint.sh does both. go vet is the tool's only driver.
//
// The analyzers (see each package's doc for the invariant's history):
//
//	unsafeview  unsafe confined to checked View/Bytes casts in internal/mmapio
//	snapload    one-Load snapshot reads; publishes only via the swap helpers
//	syncorder   no fsync while a reader-contended mutex is held
//	keepalive   runtime.KeepAlive pins on prefetch warm-up sinks
//	stickyerr   durable API error results must be consumed
//
// Findings are suppressed per line with "//lint:allow <analyzer>
// <justification>"; an unjustified suppression is itself a finding.
// Select analyzers with -<name>; configure one with -<name>.<flag>.
package main

import (
	"implicitlayout/internal/analysis/keepalive"
	"implicitlayout/internal/analysis/lintkit"
	"implicitlayout/internal/analysis/snapload"
	"implicitlayout/internal/analysis/stickyerr"
	"implicitlayout/internal/analysis/syncorder"
	"implicitlayout/internal/analysis/unsafeview"
)

func main() {
	lintkit.Main(
		keepalive.Analyzer,
		snapload.Analyzer,
		stickyerr.Analyzer,
		syncorder.Analyzer,
		unsafeview.Analyzer,
	)
}
