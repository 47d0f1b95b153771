#!/usr/bin/env bash
# Counts the workspace's Rust lines of code, split into non-test and test.
#
#   scripts/loc.sh         # the working tree (tracked and unignored files)
#   scripts/loc.sh REV     # the tree at git revision REV
#
# A line counts when it is neither blank nor a comment line (`//`, `///`,
# `//!`). Test code is every file under `tests/` or `crates/*/tests/`,
# plus each `#[cfg(test)]` item elsewhere: from the attribute through the
# brace that closes the item. Braces are counted per character outside
# `//` comments, so an unbalanced brace inside a string or char literal of
# a test module would end it early.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-}"
if [ -n "$rev" ]; then
    git rev-parse --verify --quiet "$rev^{commit}" > /dev/null ||
        { echo "error: unknown revision $rev" >&2; exit 2; }
    files=$(git ls-tree -r --name-only "$rev" | grep '\.rs$' || true)
    show() { git show "$rev:$1"; }
else
    files=$(git ls-files --cached --others --exclude-standard | grep '\.rs$' || true)
    show() { cat "$1"; }
fi

count='
{
    stripped = $0
    sub(/^[ \t]+/, "", stripped)
    if (!test_file && !in_test && stripped ~ /^#\[cfg\(test\)\]/) {
        in_test = 1; depth = 0; opened = 0
    }
    if (stripped != "" && stripped !~ /^\/\//) {
        if (test_file || in_test) test++; else code++
    }
    if (in_test) {
        s = $0
        sub(/\/\/.*/, "", s)
        opens = gsub(/\{/, "", s)
        closes = gsub(/\}/, "", s)
        depth += opens - closes
        if (opens > 0) opened = 1
        if (opened && depth <= 0) in_test = 0
        else if (!opened && stripped ~ /;[ \t]*$/) in_test = 0
    }
}
END { print code + 0, test + 0 }'

non_test=0
test=0
for f in $files; do
    if [ -z "$rev" ] && [ ! -f "$f" ]; then
        continue # deleted in the working tree
    fi
    case "$f" in
        tests/* | crates/*/tests/*) test_file=1 ;;
        *) test_file=0 ;;
    esac
    read -r c t < <(show "$f" | awk -v test_file="$test_file" "$count")
    non_test=$((non_test + c))
    test=$((test + t))
done
echo "non-test $non_test"
echo "test     $test"
