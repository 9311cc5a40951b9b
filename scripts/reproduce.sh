#!/usr/bin/env bash
# Re-runs paper experiments with provenance: builds `reproduce` once in
# release and writes results/<name>.txt under the *current* directory, first
# line `# rev <git rev>[-dirty] isa=<tier> <name> <args>` (the tier is the
# instruction set the kernels selected on this host: sse2, avx2 or avx512 —
# simulated quantities do not depend on it, host seconds do).
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
isa=$("$root/target/release/reproduce" isa)
mkdir -p results
for name in "${names[@]}"; do
  { echo "# rev $rev isa=$isa $name${keys[*]:+ ${keys[*]}}"; "$root/target/release/reproduce" "$name" "${keys[@]}"; } > "results/$name.txt"
  echo "results/$name.txt"
done
