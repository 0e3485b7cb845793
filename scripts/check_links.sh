#!/usr/bin/env bash
# check_links.sh [file.md ...] — fail if any internal markdown link in
# the given files (default: README.md ARCHITECTURE.md) points at a file
# that does not exist or an anchor with no matching heading, or if a
# `go run ./<dir>` command names a directory that does not exist. Links
# are read from prose only: external links (http/https/mailto) and
# anything inside fenced code blocks or inline code spans are ignored.
# `go run` commands are read everywhere, code included. Run from the
# repository root.
set -u

files=("$@")
if [ ${#files[@]} -eq 0 ]; then
  files=(README.md ARCHITECTURE.md)
fi

# prose <file.md> prints the file with fenced code blocks dropped, so a
# shell comment or a Go call inside a fence is read as neither a heading
# nor a link. With strip=1 it also removes inline code spans.
prose() {
  awk -v strip="${2:-0}" '
    /^[[:space:]]*(```|~~~)/ { fence = !fence; next }
    fence { next }
    { if (strip) gsub(/`[^`]*`/, ""); print }
  ' "$1"
}

# slugs_of <file.md> prints the GitHub-style anchor slug of every
# heading: lowercase, punctuation stripped, spaces to hyphens.
slugs_of() {
  prose "$1" | grep -E '^#{1,6} ' | sed -E 's/^#{1,6} +//' \
    | tr '[:upper:]' '[:lower:]' \
    | sed -E 's/[^a-z0-9 -]//g; s/ /-/g'
}

fail=0
for f in "${files[@]}"; do
  if [ ! -f "$f" ]; then
    echo "check_links: no such file: $f" >&2
    fail=1
    continue
  fi
  # Extract every ](target) and strip the wrapper and any link title.
  while IFS= read -r target; do
    case "$target" in
      http://* | https://* | mailto:*) continue ;;
    esac
    path="${target%%#*}"
    anchor=""
    case "$target" in
      *#*) anchor="${target#*#}" ;;
    esac
    if [ -z "$path" ]; then
      path="$f" # same-file anchor link
    fi
    if [ ! -e "$path" ]; then
      echo "$f: broken link: ($target) — no such file: $path" >&2
      fail=1
      continue
    fi
    case "$path" in
      *.md)
        if [ -n "$anchor" ] && ! slugs_of "$path" | grep -qx "$anchor"; then
          echo "$f: broken anchor: ($target) — no heading in $path slugs to #$anchor" >&2
          fail=1
        fi
        ;;
    esac
  done < <(prose "$f" 1 | grep -oE '\]\([^)]+\)' | sed -E 's/^\]\(//; s/\)$//; s/ .*$//')
  # Every `go run ./<dir>`, in a code block or a code span, must name a
  # directory that exists.
  while IFS= read -r dir; do
    if [ ! -d "$dir" ]; then
      echo "$f: stale command: go run $dir — no such directory" >&2
      fail=1
    fi
  done < <(grep -oE 'go run \./[A-Za-z0-9_./-]*' "$f" | sed -E 's/^go run //')
done

if [ "$fail" -ne 0 ]; then
  echo "check_links: FAILED" >&2
else
  echo "check_links: OK (${files[*]})"
fi
exit "$fail"
