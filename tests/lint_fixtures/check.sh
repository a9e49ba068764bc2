#!/usr/bin/env bash
# Runs clippy over the lint fixtures and checks that the lints that fire
# are exactly the ones the `//~` comments expect (see src/lib.rs).
#
#   tests/lint_fixtures/check.sh        # under the workspace's clippy.toml
#   CLIPPY_CONF_DIR="$PWD/crates/metrics" tests/lint_fixtures/check.sh fixed-point
#
# The optional argument names the tier whose `//~[tier]` marks apply.
# Run it from anywhere; it needs cargo (with clippy) and jq.
set -euo pipefail
tier="${1:-}"
cd "$(dirname "$0")"

# `src/lib.rs:LINE LINT` for every mark that applies to this run.
expected=$(grep -n '//~' src/lib.rs | awk -v tier="$tier" '{
    if ($0 ~ /^[0-9]+:[ \t]*\/\/[!\/]/) next  # doc comments describe the marks
    line = $0; sub(/:.*/, "", line)
    mark = $0; sub(/.*\/\/~/, "", mark)
    if (mark ~ /^\[/) {
        tag = mark; sub(/^\[/, "", tag); sub(/\].*/, "", tag)
        if (tag != tier) next
        sub(/^\[[^]]*\]/, "", mark)
    }
    n = split(mark, lints, " ")
    for (i = 1; i <= n; i++) print "src/lib.rs:" line " " lints[i]
}' | sort -u)

# The same shape for every diagnostic clippy reports, library and tests.
# The deny-level marks fail the build, so clippy's exit status says nothing.
actual=$(cargo clippy --offline --quiet --all-targets --message-format=json 2>/dev/null |
    jq -r 'select(.reason == "compiler-message") | .message | select(.code != null)
        | .code.code as $lint | .spans[] | select(.is_primary)
        | "\(.file_name):\(.line_start) \($lint)"' | sort -u) || true

if [ "$expected" != "$actual" ]; then
    echo "lint fixtures${tier:+ ($tier tier)}: clippy's findings differ from the marks"
    echo "(< marked but silent, > fired but unmarked)"
    diff <(echo "$expected") <(echo "$actual") || true
    exit 1
fi
echo "lint fixtures${tier:+ ($tier tier)}: $(echo "$expected" | wc -l) marked findings, all fired, nothing else"
