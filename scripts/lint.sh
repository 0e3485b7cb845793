#!/usr/bin/env sh
# lint.sh — the repository's static-analysis gate.
#
# Builds cmd/implicitlint (the project-specific analyzer suite) and runs
# it over the whole module through `go vet -vettool`, then asserts the
# serving packages' dependency graph stays standard-library-only and
# free of the paper's permutation kernels. Any finding, any third-party
# import reachable from ./store, or perm or its kernels reachable from
# ./store, ./server or ./client fails the script. Run from the module
# root:
#
#   ./scripts/lint.sh
#
# staticcheck runs too when it is on PATH (CI installs it pinned; local
# runs without it still get the project analyzers and go vet).

set -eu

cd "$(dirname "$0")/.."

echo "==> go vet"
go vet ./...

echo "==> implicitlint (project analyzers via go vet -vettool)"
tool="$(mktemp -d)/implicitlint"
trap 'rm -rf "$(dirname "$tool")"' EXIT
go build -o "$tool" ./cmd/implicitlint
go vet -vettool="$tool" ./...

echo "==> serving dep graph stays std-only"
# Everything reachable from ./store must be this module or std. A std
# package's first path element has no dot; any dotted domain (x/tools,
# or anything else third-party) is a regression of the zero-dependency
# serving invariant.
bad="$(go list -deps ./store | grep -v '^implicitlayout' | awk -F/ '$1 ~ /\./' || true)"
if [ -n "$bad" ]; then
    echo "non-std packages in the serving dep graph:" >&2
    printf '%s\n' "$bad" >&2
    exit 1
fi

echo "==> serving dep graph stays clear of the paper's kernels"
# The serving stack lays arrays out with layout.Write and reads them back
# with layout.Read; perm and the in-place kernels under it are the
# paper's measured operation and stand beside the stack, not under it.
deps="$(go list -deps ./store ./server ./client)"
bad="$(printf '%s\n' "$deps" |
    grep -E '^implicitlayout/(perm|internal/(core|gather|shuffle|vec|numth))$' || true)"
if [ -n "$bad" ]; then
    echo "permutation packages in the serving dep graph:" >&2
    printf '%s\n' "$bad" >&2
    exit 1
fi

if command -v staticcheck >/dev/null 2>&1; then
    echo "==> staticcheck"
    staticcheck ./...
else
    echo "==> staticcheck not on PATH; skipped (CI runs it pinned)"
fi

echo "lint: OK"
