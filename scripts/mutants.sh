#!/usr/bin/env bash
# Mutation check of the gates: applies each mutant of scripts/mutants.txt,
# one at a time, to a copy of the tree under target/mutants/, runs
# `cargo test --workspace --release --no-fail-fast` and then `exp check`
# against it, and prints a verdict for each mutant and a count per layer.
#
#   scripts/mutants.sh [--check] [LAYER...]
#
# With LAYER arguments only the mutants of those layers run. --check
# builds nothing: it verifies only that every catalogue pattern still
# matches its file exactly once and that every expected killer names a
# `fn` in the tree. A pattern that matches no line, or more than one
# place, fails either mode, so the catalogue cannot rot silently; so
# does a killer that no longer exists, and a mutant that does not
# build. A mutant is killed when its expected killer is among the
# failing tests (every failing test is listed); one that other tests or
# only `exp check` catch is "killed, but not by" its killer. The full
# run exits non-zero unless every mutant is killed by its killer.
#
# Catalogue lines are tab-separated: file, pattern, replacement, layer,
# expected killer (the name of a test `fn`). Patterns and replacements
# are literal text in which `\n` stands for a newline. Blank lines and
# lines starting with `#` are skipped. The working tree's files (tracked
# and untracked, not ignored) are copied, so the checkout is never
# edited; each mutant's log lands in target/mutants/logs/.
set -euo pipefail

check_only=false
if [ "${1-}" = --check ]; then
    check_only=true
    shift
fi
want_layers=" $* "

root=$(cd "$(dirname "$0")/.." && pwd)
catalogue=$root/scripts/mutants.txt

# The number of places `pat` occurs in `text`.
occurrences() {
    local text=$1 pat=$2
    local rest=${text//"$pat"/}
    echo $(((${#text} - ${#rest}) / ${#pat}))
}

files=() pats=() reps=() layers=() killers=()
bad=0
lineno=0
while IFS= read -r line || [ -n "$line" ]; do
    lineno=$((lineno + 1))
    [[ -z $line || $line == \#* ]] && continue
    IFS=$'\t' read -r file pat rep layer killer <<<"$line"
    if [ -z "${killer-}" ]; then
        echo "mutants.txt:$lineno: expected 5 tab-separated fields" >&2
        bad=1
        continue
    fi
    pat=${pat//\\n/$'\n'}
    rep=${rep//\\n/$'\n'}
    if [ ! -f "$root/$file" ]; then
        echo "mutants.txt:$lineno: no file $file" >&2
        bad=1
        continue
    fi
    n=$(occurrences "$(<"$root/$file")" "$pat")
    if [ "$n" -ne 1 ]; then
        echo "mutants.txt:$lineno: the pattern matches $n places in $file, not 1" >&2
        bad=1
        continue
    fi
    if ! grep -rqE --include='*.rs' "\bfn ${killer}\b" \
        "$root/crates" "$root/src" "$root/tests" "$root/examples"; then
        echo "mutants.txt:$lineno: the expected killer $killer names no fn in the tree" >&2
        bad=1
        continue
    fi
    [[ $want_layers == "  " || $want_layers == *" $layer "* ]] || continue
    files+=("$file") pats+=("$pat") reps+=("$rep") layers+=("$layer") killers+=("$killer")
done <"$catalogue"
[ "$bad" -eq 0 ] || exit 1
if $check_only; then
    echo "mutants: ${#files[@]} catalogue patterns each match once, and every killer exists"
    exit 0
fi

work=$root/target/mutants
rm -rf "$work/src" "$work/logs"
mkdir -p "$work/src" "$work/logs"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    tar --null --ignore-failed-read -T - -c) | tar -x -C "$work/src"
export CARGO_TARGET_DIR=$work/target

declare -A killed total
not_killed=0
for i in "${!files[@]}"; do
    f=$work/src/${files[$i]}
    log=$work/logs/$i.log
    cp "$f" "$f.orig"
    text=$(<"$f")
    printf '%s\n' "${text/"${pats[$i]}"/"${reps[$i]}"}" >"$f"
    killer=${killers[$i]}
    verdict=survived
    if ! (cd "$work/src" && cargo test --workspace --release --offline -q --no-run) >"$log" 2>&1; then
        verdict="does not build"
    elif ! (cd "$work/src" && cargo test --workspace --release --offline -q --no-fail-fast) \
        >>"$log" 2>&1; then
        failed=$(sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$log" | sort -u | paste -sd, -)
        if grep -qE "^---- (.*::)?${killer} stdout ----$" "$log"; then
            verdict="killed by cargo test (${failed})"
        else
            verdict="killed, but not by ${killer} (failed: ${failed:-see log})"
        fi
    elif ! (cd "$work/src" && cargo run -q --release --offline -p ndroid-bench --bin exp -- check) >>"$log" 2>&1; then
        verdict="killed, but not by ${killer} (only exp check fails)"
    fi
    # A fresh mtime, so that cargo rebuilds the restored crate.
    mv "$f.orig" "$f" && touch "$f"
    layer=${layers[$i]}
    total[$layer]=$((${total[$layer]-0} + 1))
    case $verdict in
    "killed by"*) killed[$layer]=$((${killed[$layer]-0} + 1)) ;;
    *) not_killed=$((not_killed + 1)) ;;
    esac
    before=${text%%"${pats[$i]}"*}
    printf '%-6s %s:%s  %s  (expected: %s)\n' "$layer" "${files[$i]}" \
        "$(wc -l <<<"$before")" "$verdict" "$killer"
done

echo "== per layer =="
for layer in "${!total[@]}"; do
    echo "$layer: ${killed[$layer]-0}/${total[$layer]} killed by their expected killer"
done
[ "$not_killed" -eq 0 ]
