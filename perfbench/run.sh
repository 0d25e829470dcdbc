#!/usr/bin/env bash
# The benchmark's one command.  Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --selfcheck [--seed <n>] [--seconds <s>]
#
# It builds the release `suif-explorer` daemon from the repository's
# workspace and the `perfbench` program from this directory (both offline,
# into $CARGO_TARGET_DIR, by default `.bench_build`), then runs the program
# with the daemon's path and a scratch directory inside the target directory.
# The last line of standard output is the result object; everything before it
# is the report.  Cargo's own output goes to standard error.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$CARGO_TARGET_DIR"
target="$(cd "$CARGO_TARGET_DIR" && pwd)"
export CARGO_TARGET_DIR="$target"

# The daemon is the product's own binary, built the way the product builds it.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  -p suif-server --bin suif-explorer >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# The report's header names the commit where there is one to name.
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"

exec "$target/release/perfbench" \
  --daemon "$target/release/suif-explorer" \
  --work "$target/perfbench-work" \
  --commit "$commit" \
  "$@"
