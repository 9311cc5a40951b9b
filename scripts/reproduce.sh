#!/usr/bin/env bash
# Re-runs paper experiments with provenance: builds `reproduce` once in
# release and writes results/<name>.txt under the *current* directory, first
# line `# rev <git rev>[-dirty] <name> <args>`.
# Usage: scripts/reproduce.sh [name…|all] [key=value…]   (all = every results/*.txt)
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
names=() keys=()
for arg in "$@"; do if [[ $arg == *=* ]]; then keys+=("$arg"); else names+=("$arg"); fi; done
if [[ ${#names[@]} -eq 0 || ${names[0]} == all ]]; then
  names=(); for f in "$root"/results/*.txt; do names+=("$(basename "$f" .txt)"); done
fi
cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p ec-bench --bin reproduce
rev=$(git -C "$root" rev-parse --short HEAD)$(git -C "$root" diff --quiet HEAD || echo -dirty)
mkdir -p results
for name in "${names[@]}"; do
  { echo "# rev $rev $name${keys[*]:+ ${keys[*]}}"; "$root/target/release/reproduce" "$name" "${keys[@]}"; } > "results/$name.txt"
  echo "results/$name.txt"
done
