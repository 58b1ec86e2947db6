#!/usr/bin/env bash
# Docs link checker: every relative link target in the repo's markdown
# must exist. Catches the rot mode docs actually suffer — a file moves or
# a section is renamed and README keeps pointing at the old path.
#
# Checks [text](target) links in all tracked *.md files, skipping
# absolute URLs (http/https/mailto) and pure #anchors. A target with a
# #fragment is checked for file existence only.
#
# Also checks the markdown names that code mentions: every file name
# ending in .md that a tracked *.h, *.cc, *.cpp or *.sh file mentions
# must resolve — relative to the repo root or to the mentioning file's
# directory, or, for a bare name, to the basename of some tracked
# markdown file. This catches a comment that points readers at a
# document that was never written or has moved.
#
# Usage: scripts/check_docs.sh

set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
while IFS= read -r md; do
  dir="$(dirname "$md")"
  # Pull out every inline link target. Grep emits `(target)` captures one
  # per line; strip the parens, then filter.
  while IFS= read -r target; do
    [[ -z "$target" ]] && continue
    case "$target" in
      http://*|https://*|mailto:*) continue ;;  # external
      \#*) continue ;;                          # same-file anchor
    esac
    path="${target%%#*}"
    [[ -z "$path" ]] && continue
    if [[ ! -e "$dir/$path" && ! -e "$path" ]]; then
      echo "BROKEN: $md -> $target" >&2
      fail=1
    fi
  done < <(grep -o '\[[^]]*\]([^)]*)' "$md" 2>/dev/null \
             | sed 's/^\[[^]]*\](//; s/)$//' \
             | sed 's/ ".*"$//')
done < <(git ls-files '*.md')

md_files="$(git ls-files '*.md')"
while IFS=: read -r src name; do
  case "$name" in //*) continue ;; esac  # the tail of a URL
  [[ -e "$name" || -e "$(dirname "$src")/$name" ]] && continue
  if [[ "$name" != */* ]] &&
     grep -qE "(^|/)${name//./\\.}\$" <<<"$md_files"; then
    continue
  fi
  echo "BROKEN: $src names $name" >&2
  fail=1
done < <(git ls-files -z '*.h' '*.cc' '*.cpp' '*.sh' \
           | xargs -0 grep -oHE '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b' \
           || true)

if [[ "$fail" != 0 ]]; then
  echo "FAIL: broken markdown links or doc names (see above)" >&2
  exit 1
fi
echo "OK: all relative markdown links and doc names in code resolve"
