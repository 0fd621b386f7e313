#!/usr/bin/env bash
# Committed mutation checks: each diff under tools/mutants/ breaks the
# program on purpose, and the test its manifest line names must fail.
#
#   tools/mutants.sh [NAME...]
#
# HEAD is exported with `git archive` into a fresh directory under
# $TMPDIR, as tools/ab.sh does; the repository itself is only read, so
# commit first.
# tools/mutants/MANIFEST holds one line per mutant:
#
#   <name> <cargo test arguments...>
#
# naming tools/mutants/<name>.diff and the cargo test invocation that
# must kill it (`--test public_surface`, `-p ff-device --lib some_test`).
# Lines starting with `#` are comments; an equivalent mutant, which no
# test can kill, says why in a comment above its line. NAMEs, if given,
# run only those mutants.
#
# Every named test first runs on the unmutated copy and must pass. Then,
# one mutant at a time, the diff is applied to the copy, the named test
# runs, and the diff is reverted. Each mutant prints one verdict:
#   killed        the test built and failed;
#   survived      the test built and passed;
#   build-failed  the mutated code or its test did not compile;
#   stale         the diff no longer applies to HEAD.
# The exit status is 0 only when every mutant is killed. Logs stay in
# the printed work directory.
set -euo pipefail

usage() {
    echo "usage: tools/mutants.sh [NAME...]" >&2
    exit 2
}

only=()
for arg in "$@"; do
    case "$arg" in
        -*) usage ;;
        *) only+=("$arg") ;;
    esac
done

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mutants="$repo/tools/mutants"
sha="$(git -C "$repo" rev-parse --verify HEAD)"
work="$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")"
copy="$work/src"
logs="$work/logs"
mkdir -p "$copy" "$logs"
git -C "$repo" archive "$sha" | tar -x -C "$copy"
# Its own repository, so that `git apply` patches the copy even when
# $TMPDIR lies inside another work tree.
git init -q "$copy"
echo "mutating ${sha:0:12} (HEAD), exported to $copy"

names=()
commands=()
while read -r name args; do
    if [ -z "$name" ] || [[ "$name" == \#* ]]; then
        continue
    fi
    if [ ${#only[@]} -gt 0 ] && [[ ! " ${only[*]} " == *" $name "* ]]; then
        continue
    fi
    names+=("$name")
    commands+=("$args")
done <"$mutants/MANIFEST"
[ ${#names[@]} -gt 0 ] || { echo "no mutant selected" >&2; exit 2; }

test_run() { # log cargo-test-arguments
    # shellcheck disable=SC2086 # the manifest's arguments split on spaces
    (cd "$copy" && cargo test --offline -q $2) >"$1" 2>&1
}

# The unmutated copy must pass every named test, or a failure would say
# nothing about the mutant.
declare -A baseline=()
for args in "${commands[@]}"; do
    [ -z "${baseline[$args]:-}" ] || continue
    baseline[$args]=1
    log="$logs/baseline-${#baseline[@]}.txt"
    if ! test_run "$log" "$args"; then
        echo "baseline: \`cargo test $args\` fails unmutated (see $log)" >&2
        exit 1
    fi
done

failed=0
for i in "${!names[@]}"; do
    name="${names[$i]}"
    args="${commands[$i]}"
    diff="$mutants/$name.diff"
    log="$logs/$name.txt"
    if ! (cd "$copy" && git apply --check "$diff") >"$log" 2>&1; then
        verdict=stale
    else
        (cd "$copy" && git apply "$diff")
        # shellcheck disable=SC2086
        if ! (cd "$copy" && cargo test --offline -q --no-run $args) >"$log" 2>&1; then
            verdict=build-failed
        elif test_run "$log" "$args"; then
            verdict=survived
        else
            verdict=killed
        fi
        (cd "$copy" && git apply -R "$diff")
    fi
    [ "$verdict" = killed ] || failed=1
    printf '%-14s %-32s cargo test %s\n' "$verdict" "$name" "$args"
done
echo "logs in $logs"
exit "$failed"
