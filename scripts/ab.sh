#!/usr/bin/env bash
# A/B benchmark of the working tree against an earlier revision: builds
# the `pipeline` benchmark of both, runs them in alternating pairs and
# judges the runs with `pipeline compare` against BENCHMARK.json's bounds.
#
#   scripts/ab.sh PARENT_REV [WORKLOAD...]
#
# The workloads default to all three. Each workload gets 10 pairs, and
# every run uses seed 0xD514 and the benchmark's own run length. The
# parent is exported with `git archive`; the working tree's files
# (tracked and untracked, not ignored) are copied, so no build writes
# into the checkout's benchmark directory.
# Each side is built with its own CARGO_TARGET_DIR under target/ab/, and
# the runs land in target/ab/runs/{parent,change}/<workload>.<i>.out.
# Pair i runs the parent first when i is even and the change first when
# it is odd, so a drift in host speed falls on both sides alike.
set -euo pipefail
if [ $# -lt 1 ]; then
    sed -n '2,16p' "$0" >&2
    exit 2
fi
rev=$1
shift
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(app_scan cfbench monkey_fanout)

root=$(git rev-parse --show-toplevel)
out=$root/target/ab
pipe=crates/bench/src/bin/pipeline
rm -rf "$out/parent-src" "$out/change-src" "$out/runs"
mkdir -p "$out/parent-src" "$out/change-src" "$out/runs/parent" "$out/runs/change"
git -C "$root" archive "$rev" | tar -x -C "$out/parent-src"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    tar --null --ignore-failed-read -T - -c) | tar -x -C "$out/change-src"

for side in parent change; do
    echo "building the $side" >&2
    CARGO_TARGET_DIR=$out/$side-target cargo build --release --offline --quiet \
        --manifest-path "$out/$side-src/$pipe/Cargo.toml" --bins
done

for w in "${workloads[@]}"; do
    for ((i = 0; i < 10; i++)); do
        order=(parent change)
        ((i % 2 == 0)) || order=(change parent)
        for side in "${order[@]}"; do
            echo "$w pair $i: $side" >&2
            "$out/$side-target/release/pipeline" --workload "$w" --seed 0xD514 \
                --trace 0 >"$out/runs/$side/$w.$i.out" ||
                echo "$w pair $i: the $side run failed a check (exit $?)" >&2
        done
    done
done

cd "$root"
"$out/change-target/release/pipeline" compare "$out/runs/parent" "$out/runs/change"
