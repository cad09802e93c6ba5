#!/usr/bin/env bash
# format-check gate (DESIGN.md §11): clang-format in dry-run mode over the
# C++ tree — reports diffs, changes nothing. Exits 77 ("skipped" to ctest)
# when clang-format is not installed; tools/sperke_analyze.py's format-basics
# rule (tabs, trailing whitespace, CRLF, final newline) is the always-on
# floor beneath this gate.
set -u

fmt=""
for candidate in clang-format clang-format-2{1,0} clang-format-1{9,8,7,6,5,4}; do
  if command -v "$candidate" > /dev/null 2>&1; then
    fmt="$candidate"
    break
  fi
done
if [ -z "$fmt" ]; then
  echo "format-check: SKIPPED — clang-format not found on PATH" >&2
  exit 77
fi

files=$(find src tests bench examples -name '*.cpp' -o -name '*.h' | sort)
echo "format-check: $fmt --dry-run over $(echo "$files" | wc -l) files"
# shellcheck disable=SC2086
"$fmt" --dry-run --Werror $files
status=$?
if [ $status -eq 0 ]; then
  echo "format-check: OK"
else
  echo "format-check: FAIL — run: $fmt -i <files>" >&2
fi
exit $status
