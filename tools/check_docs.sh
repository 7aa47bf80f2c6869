#!/usr/bin/env bash
# Documentation checks, run by the CI docs job and usable locally:
#
#   1. Every intra-repo markdown link ([text](path), relative or
#      repo-rooted) in tracked *.md files must resolve to an existing file
#      or directory. External (scheme://), mailto: and pure-anchor (#...)
#      links are ignored; a trailing #anchor is stripped before resolution.
#   2. Every public header in src/core/, src/obs/, src/service/ and
#      src/fault/ must open with a file-level doc comment (its first line is
#      a // comment), so the core, observability, service and fault-injection
#      APIs stay self-describing.
#   3. Every input that tests or CI read from the checkout must be tracked
#      by git (in `git ls-files`), so a fresh clone has it: each
#      tests/golden/* and tests/data/* path named in tests/*.cpp or
#      .github/workflows/ci.yml, and each baseline ci.yml passes to
#      tools/bench_compare.py as its second argument (unless the workflow
#      writes that file itself with --json). An ignore rule that hides such
#      a file passes every local run and fails only in a fresh clone.
#
# Exits non-zero listing every violation. No dependencies beyond bash +
# coreutils + grep/sed.
set -u

cd "$(dirname "$0")/.."
failures=0

note_failure() {
  echo "FAIL: $1" >&2
  failures=$((failures + 1))
}

# --- 1. intra-repo markdown links --------------------------------------------

# Tracked markdown only; fall back to find when git is unavailable.
if command -v git > /dev/null 2>&1 && git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  md_files=$(git ls-files '*.md')
else
  md_files=$(find . -name '*.md' -not -path './build*' -not -path './.git/*' | sed 's|^\./||')
fi

for file in $md_files; do
  dir=$(dirname "$file")
  # Inline links: capture the (...) target of every [...](...) occurrence.
  # Multiple links per line are handled by -o matching each occurrence.
  while IFS= read -r target; do
    case "$target" in
      '' | '#'* | *'://'* | mailto:*) continue ;;
    esac
    path="${target%%#*}"        # strip anchor
    path="${path%% *}"          # strip optional '"title"' suffix
    [ -z "$path" ] && continue
    if [ "${path#/}" != "$path" ]; then
      resolved=".${path}"       # repo-rooted link
    else
      resolved="$dir/$path"
    fi
    if [ ! -e "$resolved" ]; then
      note_failure "$file: broken intra-repo link '$target' (no such path: $resolved)"
    fi
  done < <(grep -o '\[[^]]*\]([^)]*)' "$file" 2> /dev/null | sed 's/^\[[^]]*\](\([^)]*\))$/\1/')
done

# --- 2. file-level doc comments on core/obs/service/fault public headers ------

for header in src/core/*.h src/obs/*.h src/service/*.h src/fault/*.h; do
  first_line=$(head -n 1 "$header")
  case "$first_line" in
    //*) ;;
    *) note_failure "$header: public header lacks a file-level doc comment (first line must be //)" ;;
  esac
done

# --- 3. inputs read by tests and CI are tracked ---------------------------------

ci=.github/workflows/ci.yml
if command -v git > /dev/null 2>&1 && git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  tracked=$(git ls-files)
  # ci.yml with backslash continuations joined, so one command is one line.
  ci_joined=$(sed -e ':a' -e '/\\$/N' -e 's/[[:space:]]*\\\n[[:space:]]*/ /' -e 'ta' "$ci")
  ci_written=$(grep -o -- '--json [^ ]*' <<< "$ci_joined" | cut -d' ' -f2)
  inputs=$(
    grep -oh 'tests/\(golden\|data\)/[A-Za-z0-9_.-]*' tests/*.cpp "$ci"
    grep -o 'bench_compare\.py [^ ]* [^ -][^ ]*' <<< "$ci_joined" | cut -d' ' -f3 |
      grep -vxF -- "$ci_written"
  )
  for input in $(sort -u <<< "$inputs"); do
    grep -qxF -- "$input" <<< "$tracked" ||
      note_failure "$input: read by tests or CI but not tracked by git (check .gitignore, then git add it)"
  done
else
  echo "check_docs: not a git work tree, skipping the tracked-inputs check" >&2
fi

if [ "$failures" -gt 0 ]; then
  echo "check_docs: $failures problem(s) found" >&2
  exit 1
fi
echo "check_docs: OK (markdown links, header doc comments, tracked test/CI inputs)"
