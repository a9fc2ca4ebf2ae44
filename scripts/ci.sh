#!/usr/bin/env bash
# Hermetic CI pass: build, test, and bench-smoke the whole workspace
# with zero network/registry access. Fails if any dependency would be
# resolved from a registry rather than a workspace path.
#
# Each stage prints its wall-clock on completion (`-- <stage>: Ns`), so
# a slow CI run is attributable to a stage rather than the whole script.
set -euo pipefail

cd "$(dirname "$0")/.."

CURRENT_STAGE=""
STAGE_T0=0
stage_end() {
  if [ -n "$CURRENT_STAGE" ]; then
    echo "-- ${CURRENT_STAGE}: $((SECONDS - STAGE_T0))s"
  fi
}
stage() {
  stage_end
  CURRENT_STAGE="$1"
  STAGE_T0=$SECONDS
  echo "== ${CURRENT_STAGE} =="
}

stage "dependency graph is workspace-only"
# With no lockfile entries for registry crates, --offline resolution
# succeeds only if every dependency is a path dependency. Double-check
# explicitly so a reintroduced crates.io dep fails loudly here.
if cargo metadata --format-version 1 --offline --no-deps \
    | grep -o '"source":"[^"]*"' | grep -qv '"source":null'; then
  echo "error: non-path dependency in the workspace graph" >&2
  exit 1
fi
if grep -o '"source":[^,]*' Cargo.lock 2>/dev/null | grep -q 'registry'; then
  echo "error: Cargo.lock references a registry" >&2
  exit 1
fi

stage "mutant catalogue: every pattern still matches its file"
# scripts/mutants.sh applies each mutant of scripts/mutants.txt to a copy
# of the tree and runs the gates against it; every mutant rebuilds, so
# the full run is not a CI stage. --check builds nothing: it fails when
# a catalogue pattern no longer matches its file exactly once.
scripts/mutants.sh --check

stage "cargo build --release --offline"
cargo build --workspace --release --offline

stage "clippy: no warnings outside the benchmark's pipeline binary"
# Every workspace target is linted with warnings as errors, except the
# `pipeline` bin: it is the end-to-end benchmark's own package, changed
# only together with the benchmark. The bench package is therefore
# linted per target kind; `--benches` would pull `pipeline` back in
# (bin targets default to `bench = true`).
cargo clippy -q --offline --workspace --exclude ndroid-bench --all-targets -- -D warnings
cargo clippy -q --offline -p ndroid-bench --lib --bin exp --bench '*' -- -D warnings

stage "rustdoc: no warnings, no dangling intra-doc links"
# The bench package documents only its library, as clippy lints it
# without the pipeline bin.
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace --exclude ndroid-bench
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps -p ndroid-bench --lib

stage "cargo test --offline"
cargo test -q --workspace --offline

stage "timing claims on the release build"
# Tests that pin a timing claim about optimized code are ignored in a
# debug build, where the build profile rather than the architecture
# sets the ordering, and run here instead: the Fig. 10 pin that
# NDroid's native overhead exceeds its Java overhead on the stepper.
cargo test -q --release --offline -p ndroid-cfbench

stage "differential taint oracle (pinned case count)"
# The testkit derives per-property seed streams deterministically from
# the property name, so a fixed case count IS a pinned run: the same
# >=200 generated ARM/Thumb programs (writeback, LDM/STM, SMC,
# conditional execution) are checked against the reference engine
# every time. (TESTKIT_SEED is for replaying a single failing case —
# do not set it here, it would shrink the run to one case.)
TESTKIT_CASES=256 cargo test -q --offline -p ndroid-core \
  --test oracle_prop --test oracle_regression
TESTKIT_CASES=256 cargo test -q --offline -p ndroid-apps --test oracle_gallery

stage "JNI accessors: hostile arguments (pinned case count)"
# Every JNI array and field accessor is fed null, stale, wrong-kind and
# global references, out-of-range and wrapping indices and lengths, and
# jfieldIDs past a class's fields or naming no class: the host must not
# panic, each call returns a value or a typed DVM error, and a failing
# call changes no heap slot, static slot or slot taint.
TESTKIT_CASES=256 cargo test -q --offline -p ndroid-jni --test hostile_accessors

stage "adversarial corpus: detection matrix and scoring harness"
# The adversarial regression wall (pinned detection matrix, engine
# bit-identity, provenance coverage, SMC invalidation counters, and the
# TESTKIT_CASES-scaled mutated-spec property) plus the false-positive
# control.
TESTKIT_CASES="${TESTKIT_CASES:-256}" cargo test -q --offline -p ndroid-apps \
  --test adversarial_regression --test score_harness

stage "provenance store: round-trip properties"
# The store backs every recording run, so its properties (seal->decode
# identity, fingerprint and leak-path agreement at any segment size,
# compression bound, fork continuity) run at a pinned case count.
TESTKIT_CASES=256 cargo test -q --offline -p ndroid-provenance

stage "paper artifacts: every deterministic experiment matches its golden"
# `exp check` runs every registered experiment (`exp list`) and diffs
# its transcript against crates/bench/goldens/<name>.txt. It exits
# non-zero on any difference or failed gate: the batch, snapshot and
# adversarial merges against the inline reference (run_inline ==
# parallel run_batch, 1000 forked sessions == 1000 fresh ones run
# inline), the adversarial score (recall and precision 1.0) and every
# Table V row. The rerun pins the same goldens on one worker with
# superblock dispatch off, so the stepper must reproduce every
# transcript. Re-bless with `exp check --bless` after an intentional
# output change and review the diff.
cargo run -q --release --offline -p ndroid-bench --bin exp -- check
cargo run -q --release --offline -p ndroid-bench --bin exp -- check --no-blocks --workers 1

stage "Fig. 10 report: exp cfbench runs and prints its spread"
# `exp cfbench` times the CF-Bench kernels, so it has no golden; this
# smoke run keeps its output from rotting. A tiny run must exit 0 and
# print an Overall Score row whose cells are `median [q1..q3]`.
CFBENCH_OUT="$(cargo run -q --release --offline -p ndroid-bench --bin exp -- cfbench 2000 3)"
if ! grep -Eq '^Overall Score( +[0-9.]+ \[[0-9.]+\.\.[0-9.]+\]){3}$' <<<"$CFBENCH_OUT"; then
  echo "error: exp cfbench printed no Overall Score row with a [q1..q3] spread per mode" >&2
  echo "$CFBENCH_OUT" >&2
  exit 1
fi

stage "examples: each one under examples/ runs once in release"
# The list comes from the directory, as the bench list below comes from
# the manifest, so a new example is run without editing this script.
EXAMPLES="$(find examples -maxdepth 1 -name '*.rs' -exec basename {} .rs \; | sort)"
if [ -z "$EXAMPLES" ]; then
  echo "error: no examples found under examples/" >&2
  exit 1
fi
for name in $EXAMPLES; do
  if ! cargo run -q --release --offline --example "$name" >/dev/null; then
    echo "error: example $name exited non-zero" >&2
    exit 1
  fi
done

stage "bench smoke pass (TESTKIT_BENCH_SMOKE=1)"
BENCH_DIR="$(mktemp -d)"
TESTKIT_BENCH_SMOKE=1 TESTKIT_BENCH_DIR="$BENCH_DIR" \
  cargo bench -q --offline -p ndroid-bench
# Every [[bench]] target writes BENCH_<target name>.json (each suite is
# named after its target), so the expected files come from the manifest.
BENCH_NAMES="$(awk -F'"' '/^\[\[bench\]\]/ { in_bench = 1 } in_bench && /^name *=/ { print $2; in_bench = 0 }' crates/bench/Cargo.toml)"
if [ -z "$BENCH_NAMES" ]; then
  echo "error: no [[bench]] targets found in crates/bench/Cargo.toml" >&2
  exit 1
fi
for name in $BENCH_NAMES; do
  f="BENCH_${name}.json"
  if [ ! -s "$BENCH_DIR/$f" ]; then
    echo "error: bench smoke did not produce $f" >&2
    exit 1
  fi
  # Reject truncated/malformed reports: every suite JSON carries a
  # "results" array and at least one named benchmark.
  if ! grep -q '"results"' "$BENCH_DIR/$f" || ! grep -q '"median_ns"' "$BENCH_DIR/$f"; then
    echo "error: $f is malformed (missing results)" >&2
    exit 1
  fi
done
# The provenance suite additionally records the tiered-store scalars
# the compression gate is stated in terms of (the bench binary itself
# asserts bytes_per_event stays at or under 40% of the in-memory
# ProvEvent size) and times the report-plus-flow-graph digest path.
for key in bytes_per_event events_per_sec graph/from_handle; do
  if ! grep -q "\"name\": \"$key\"" "$BENCH_DIR/BENCH_provenance.json"; then
    echo "error: BENCH_provenance.json is missing $key" >&2
    exit 1
  fi
done
rm -rf "$BENCH_DIR"

stage "benchmark package: the pipeline's own manifest builds and tests"
# The end-to-end benchmark is a package of its own (not a workspace
# member), so the workspace build compiles its main.rs but never its
# calibrate.rs or its manifest. Build and test it the way run.sh does,
# from a copy of the source tree under target/ (as scripts/ab.sh does):
# cargo writes the package's lockfile beside its manifest, and the
# manifest's default target directory is beside it too, so building in
# place would leave both inside the benchmark's own directory. The copy
# is whole so that the crates it builds find their workspace manifest in
# it, not in the checkout.
PIPELINE_SRC=target/pipeline-src
rm -rf "$PIPELINE_SRC"
mkdir -p "$PIPELINE_SRC"
git ls-files -z --cached --others --exclude-standard |
  tar --null -T - -c | tar -x -C "$PIPELINE_SRC"
CARGO_TARGET_DIR=target/pipeline \
  cargo test -q --offline --manifest-path "$PIPELINE_SRC/crates/bench/src/bin/pipeline/Cargo.toml"

stage_end
echo "== CI pass complete =="
