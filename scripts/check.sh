#!/usr/bin/env bash
# Full local gate: formatting, lints (warnings are errors), the whole
# workspace test suite, the kernel, network and serving crates' tests and
# the serving and resilience suites again in release, a
# one-experiment drive of scripts/reproduce.sh, an exit-code probe of the
# `ecgraph` CLI's strict key=value parsing (zero-width layers, a zero-epoch
# run, out-of-range bit widths, a zero delay, an empty serving workload and a
# negative or non-finite Zipf exponent among the refused values),
# and `ecgraph serve` fed a hostile
# checkpoint (a u32::MAX slot count and nothing behind it), which must fail
# with exit 1 and `loading checkpoint` on stderr rather than abort.
# CI runs exactly this script. Host performance is measured by perfbench/
# (see BENCHMARK.json), not here.
# Pass --trace-smoke to also drive the CLI end-to-end with the telemetry
# exporters on (training and the serving request-trace path) and check that
# every emitted trace/metrics/timeline file parses as JSON and carries the
# series it must.
# Pass --serve-smoke to also drive `ecgraph serve` end-to-end twice — with
# exact fetches and with 8-bit quantized replies — and validate each
# emitted serve report and metrics file.
# Pass --perf-smoke to also build the benchmark package (perfbench/, a
# package of its own that the workspace build never compiles), run its
# unit tests and `perf --smoke` — so a product-crate signature change
# that breaks the benchmark fails here, not in the next benchmark run. It
# first re-runs the compute kernels' Tier-1 anchor in release, the build
# the benchmark measures, and times one dense product, one codec pass and
# the ReqEC step (decode + Selector sweep, at 64 and 16 columns) per
# instruction-set tier the host supports (a table; a wider tier slower
# than the baseline tier fails — the signature of a kernel body that was
# not inlined into its #[target_feature] entry point).
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_TRACE_SMOKE=0
RUN_SERVE_SMOKE=0
RUN_PERF_SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --trace-smoke) RUN_TRACE_SMOKE=1 ;;
    --serve-smoke) RUN_SERVE_SMOKE=1 ;;
    --perf-smoke) RUN_PERF_SMOKE=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings; clippy.toml bans + the crate-root panic ban) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test --workspace -q

echo "== cargo test --release (codec, reduction, exchange, network, loss and serving kernels; resilience) =="
# The dev profile builds these crates at opt-level 1-2, where the casts and
# lane reductions of the codec kernels are not vectorised; their
# bit-identity tests must also hold on the code the benchmark runs. Serving
# answers a batch with the tiled product and the row codec, so its
# workspace-vs-reference test belongs to the same line, and so does the
# loss's pin to the all-rows softmax. Exact serving answers equal the forward
# pass only while the store's projected rows and the per-batch product agree,
# so the serving suite runs here too. The network's node-range check must
# hold where debug assertions are off. The resilience suite's claims — a
# retry-only run under drops or corruption trains the clean run's losses,
# and a run recovered from a crash trains the uninterrupted one's — must
# hold in the optimized build that perfbench and `resilience_sweep` run.
cargo test --release -q -p ec-compress -p ec-tensor -p ec-graph -p ec-nn -p ec-serve -p ec-comm
cargo test --release -q --test serving_suite
cargo test --release -q --test resilience_suite

echo "== reproduce smoke (scripts/reproduce.sh writes a revision header) =="
# Table II is analytic and instant; the script writes under the cwd.
REPRO_DIR=$(mktemp -d)
trap 'rm -rf "$REPRO_DIR"' EXIT
(cd "$REPRO_DIR" && "$OLDPWD/scripts/reproduce.sh" table2 scale=0.05 > /dev/null)
head -1 "$REPRO_DIR/results/table2.txt" | grep -Eq '^# rev [0-9a-f]+(-dirty)? isa=(sse2|avx2|avx512) table2 scale=0\.05$' \
  || { echo "results/table2.txt lacks the '# rev <rev> isa=<tier> <name> <args>' header" >&2; exit 1; }
grep -q '^#json {"experiment":"table2"' "$REPRO_DIR/results/table2.txt" \
  || { echo "results/table2.txt has no table2 rows" >&2; exit 1; }
for bad in "fig6 epoch=5" "table2 workers=0"; do
  repro_rc=0
  # shellcheck disable=SC2086  # $bad is an experiment and its arguments
  target/release/reproduce $bad > /dev/null 2>&1 || repro_rc=$?
  [[ "$repro_rc" -eq 2 ]] \
    || { echo "reproduce $bad must exit 2, not run or panic (got $repro_rc)" >&2; exit 1; }
done

echo "== CLI smoke (ecgraph: a typo, an unparsable value, layers=0, vertices=0, workers=0, hidden=0, features=0, train epochs=0, a bit width outside 1..=16, a zero delay, a straggler below 1, clients=0, requests=0, a zipf exponent that is negative or not finite or an unknown subcommand exits 2; a hostile checkpoint exits 1) =="
cargo build --release -q --bin ecgraph
for bad in "train wrokers=3" "train hidden=abc" "serve layers=0" "train vertices=0" "serve vertices=0" \
  "train workers=0" "serve workers=0" "train hidden=0" "train features=0" "train epochs=0" \
  "serve hidden=0" "serve features=0" "serve straggler=0.5" "train fp=cp:0" "train bp=resec:17" \
  "train fp=delayed:0" "serve bits=17" "serve clients=0" "serve requests=0" "serve zipf=-1" \
  "serve zipf=inf" "serve zipf=nan" "compare a.json b.json" "bogus"; do
  cli_rc=0
  # shellcheck disable=SC2086  # $bad is a subcommand and its arguments
  target/release/ecgraph $bad > /dev/null 2>&1 || cli_rc=$?
  [[ "$cli_rc" -eq 2 ]] || { echo "ecgraph $bad must exit 2 (got $cli_rc)" >&2; exit 1; }
done
printf '\xff\xff\xff\xff' > "$REPRO_DIR/hostile.ckpt"
cli_rc=0
target/release/ecgraph serve dataset=cora vertices=150 workers=2 epochs=1 requests=20 \
  checkpoint="$REPRO_DIR/hostile.ckpt" --quiet > /dev/null 2> "$REPRO_DIR/hostile.err" || cli_rc=$?
[[ "$cli_rc" -eq 1 ]] && grep -q 'loading checkpoint' "$REPRO_DIR/hostile.err" \
  || { echo "ecgraph serve on a hostile checkpoint must exit 1 with 'loading checkpoint' (got $cli_rc)" >&2; exit 1; }

if [[ "$RUN_TRACE_SMOKE" == "1" ]]; then
  echo "== trace smoke (CLI exporters end-to-end) =="
  SMOKE_DIR=$(mktemp -d)
  trap 'rm -rf "$SMOKE_DIR" "$REPRO_DIR"' EXIT
  cargo run -q -p ec-graph-repro --bin ecgraph -- train \
    dataset=cora vertices=150 workers=4 epochs=6 fp=reqec:2 bp=resec:4 \
    --quiet --trace-out "$SMOKE_DIR/trace.json" --metrics-out "$SMOKE_DIR/metrics.json" \
    --timeline-out "$SMOKE_DIR/timeline.json"
  for needle in selector.pdt resec.theorem1_bound traffic.link_bytes; do
    grep -q "$needle" "$SMOKE_DIR/metrics.json" \
      || { echo "metrics.json is missing $needle" >&2; exit 1; }
  done
  grep -q 'fp:exchange' "$SMOKE_DIR/trace.json" \
    || { echo "trace.json is missing fp:exchange spans" >&2; exit 1; }
  for needle in overlap_headroom_s comm_wire_s idle_s; do
    grep -q "$needle" "$SMOKE_DIR/timeline.json" \
      || { echo "timeline.json is missing $needle" >&2; exit 1; }
  done

  echo "== serve trace smoke (request-level spans) =="
  cargo run -q -p ec-graph-repro --bin ecgraph -- serve \
    dataset=cora vertices=150 workers=4 epochs=2 requests=200 \
    --quiet --trace-out "$SMOKE_DIR/serve_trace.json"
  for needle in serve:fetch serve:compute; do
    grep -q "$needle" "$SMOKE_DIR/serve_trace.json" \
      || { echo "serve_trace.json is missing $needle spans" >&2; exit 1; }
  done

  echo "== trace smoke (every emitted document parses as JSON) =="
  python3 -c 'import json,sys; [json.load(open(p)) for p in sys.argv[1:]]' \
    "$SMOKE_DIR/trace.json" "$SMOKE_DIR/metrics.json" "$SMOKE_DIR/timeline.json" \
    "$SMOKE_DIR/serve_trace.json"
fi

if [[ "$RUN_SERVE_SMOKE" == "1" ]]; then
  echo "== serve smoke (ecgraph serve end-to-end) =="
  SERVE_DIR=$(mktemp -d)
  # Re-arming EXIT replaces the earlier traps; clean every dir.
  trap 'rm -rf "$SERVE_DIR" "${SMOKE_DIR:-}" "$REPRO_DIR"' EXIT
  # bits=0 ships exact rows; bits=8 drives the quantized reply path (rows
  # encoded once per checkpoint install, decoded per fetch).
  for bits in 0 8; do
    cargo run -q -p ec-graph-repro --bin ecgraph -- serve \
      dataset=cora vertices=150 workers=4 epochs=3 requests=300 bits=$bits --quiet \
      --report-out "$SERVE_DIR/serve_b$bits.json" --metrics-out "$SERVE_DIR/serve_metrics_b$bits.json"
    for needle in latency_p50_s latency_p99_s '"served":300' cache_hits; do
      grep -q "$needle" "$SERVE_DIR/serve_b$bits.json" \
        || { echo "serve_b$bits.json is missing $needle" >&2; exit 1; }
    done
    for needle in serve.cache_hit serve.latency_p99 serve.qps; do
      grep -q "$needle" "$SERVE_DIR/serve_metrics_b$bits.json" \
        || { echo "serve_metrics_b$bits.json is missing $needle" >&2; exit 1; }
    done
  done
fi

if [[ "$RUN_PERF_SMOKE" == "1" ]]; then
  echo "== perf smoke prerequisite (tiled kernels vs reference, release build) =="
  # The benchmark times the release build of the compute kernels; their
  # Tier-1 anchor must hold on exactly that code before any number is read.
  cargo test --release -q --test property_suite \
    compute_kernels_match_the_reference_on_worker_shapes

  echo "== perf smoke prerequisite (no wider tier slower than the baseline tier) =="
  cargo test --release -q --test timing_suite \
    wider_tiers_are_not_slower_than_the_baseline_tier -- --ignored --nocapture

  echo "== perf smoke (perfbench builds against the product crates) =="
  cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
  cargo run --release --offline -q --manifest-path perfbench/Cargo.toml --bin perf -- --smoke
fi

echo "All checks passed."
