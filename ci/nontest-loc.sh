#!/usr/bin/env bash
# Prints the non-test line count: for every `.rs` file under `crates/*/src`
# and `src`, the lines before its first `#[cfg(test)]` (the whole file when
# it has none), summed. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' -print0 |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { total++ }
        END { print total + 0 }
    '
