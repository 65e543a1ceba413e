#!/usr/bin/env sh
# Prints the two design counters tracked in ROADMAP.md:
#
#   1. non-test lines of the model: every line of the tracked
#      `crates/*/src/*.rs` and `examples/*.rs` files up to the file's first
#      `#[cfg(test)]` line;
#   2. settable fields of the seven model config structs: the `pub` fields
#      in the body of each `pub struct <Name> {`, per struct and in total.
#
# Run from anywhere inside the repository: `scripts/model-size.sh`.
# It only counts; it exits non-zero only if a count cannot be made
# (not a git checkout, or a listed struct is missing).
set -eu

cd "$(git rev-parse --show-toplevel)"

lines=$(git ls-files 'crates/*/src/*.rs' 'examples/*.rs' \
    | xargs awk 'FNR==1{skip=0} /^#\[cfg\(test\)\]/{skip=1} !skip{n++} END{print n}')
echo "non-test lines (crates/*/src + examples): $lines"

total=0
for struct in OsProfile DefragConfig ResolverConfig PoisonConfig ScenarioConfig \
    RateLimitConfig ClientProfile; do
    file=$(git grep -l "^pub struct $struct {" -- 'crates/*/src/*.rs' | head -n 1)
    if [ -z "$file" ]; then
        echo "model-size: pub struct $struct not found" >&2
        exit 1
    fi
    n=$(awk -v s="pub struct $struct {" '
        $0 == s { inside = 1; next }
        inside && /^}/ { inside = 0 }
        inside && /^    pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }' "$file")
    echo "  $struct ($file): $n"
    total=$((total + n))
done
echo "settable fields (seven model config structs): $total"
