#!/usr/bin/env bash
# Size of the library code: per crate and in total, the lines of each
# crates/*/src file before its first `#[cfg(test)]` line, and the number
# of `pub` item declarations in those lines. Information only: it never
# fails. Run from anywhere: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "<lines> <pub items>" for the non-test part of one file.
count() {
    awk '
        /^#\[cfg\(test\)\]/ { exit }
        { lines++ }
        /^[[:space:]]*pub (const |unsafe )?(fn|struct|enum|const|trait|type|mod|static) / { pubs++ }
        END { print lines + 0, pubs + 0 }
    ' "$1"
}

printf '%-10s %7s %5s\n' crate lines pub
total_lines=0
total_pubs=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    lines=0
    pubs=0
    while IFS= read -r f; do
        read -r l p < <(count "$f")
        lines=$((lines + l))
        pubs=$((pubs + p))
    done < <(find "$dir/src" -name '*.rs' | sort)
    printf '%-10s %7d %5d\n' "$crate" "$lines" "$pubs"
    total_lines=$((total_lines + lines))
    total_pubs=$((total_pubs + pubs))
done
printf '%-10s %7d %5d\n' total "$total_lines" "$total_pubs"
