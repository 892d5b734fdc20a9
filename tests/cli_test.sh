#!/bin/sh
# End-to-end checks of the two command-line tools, run from a scratch
# directory: the --report directory's file set and terminal status.json,
# and every flag combination that must fail instead of being ignored.
#
#   sh tests/cli_test.sh bighouse_run <bighouse_run binary> <examples/configs>
#   sh tests/cli_test.sh bh_campaign <bh_campaign binary> <examples/configs>
set -u
tool=$1
bin=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
configs=$(cd "$3" && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/bh_cli.XXXXXX") || exit 1
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
failures=0

fail() {
    echo "FAIL: $*"
    failures=$((failures + 1))
}

# expect_files DIR FILE...: DIR holds exactly these files.
expect_files() {
    dir=$1
    shift
    want=$(printf '%s\n' "$@" | sort)
    got=$(ls "$dir" 2>/dev/null | sort)
    [ "$got" = "$want" ] || fail "$dir holds [$got], expected [$want]"
}

expect_terminal() {
    grep -q '"terminal": true' "$1/status.json" \
        || fail "$1/status.json is not terminal"
}

# must_fail FLAG COMMAND...: COMMAND exits non-zero and names FLAG.
must_fail() {
    flag=$1
    shift
    if "$@" >out.txt 2>&1; then
        fail "accepted: $*"
    elif ! grep -q -- "$flag" out.txt; then
        fail "does not name $flag: $*"
    fi
}

smoke=$configs/smoke_experiment.json
campaign=$configs/smoke_campaign.json

case $tool in
bighouse_run)
    "$bin" "$smoke" --report serial >/dev/null || fail "serial --report"
    expect_files serial result.json status.json convergence.json \
        telemetry.json trace.json
    expect_terminal serial

    "$bin" "$smoke" --slaves 2 --report parallel >/dev/null \
        || fail "--slaves 2 --report"
    expect_files parallel result.json status.json telemetry.json trace.json
    expect_terminal parallel
    grep -q '"backend": "recurrence"' parallel/result.json \
        || fail "parallel result.json does not name the recurrence backend"

    # The config's timeline block is the only switch; an empty block
    # takes the defaults and adds timeline.jsonl.
    sed 's/"cluster"/"timeline": {}, "cluster"/' "$smoke" >timeline.json
    "$bin" timeline.json --report timeline >/dev/null || fail "timeline run"
    expect_files timeline result.json status.json convergence.json \
        telemetry.json trace.json timeline.jsonl

    "$bin" "$smoke" --dry-run --report planned | grep -q planned \
        || fail "--dry-run does not name the report directory"
    [ ! -e planned ] || fail "--dry-run created the report directory"

    # --dry-run names the backend that would run and each server's
    # offered load at full speed; a DES run says what blocks the
    # recurrence.
    "$bin" "$configs/google_leaf.json" --dry-run >leaf.txt \
        || fail "--dry-run google_leaf.json"
    grep -q "^  backend: recurrence$" leaf.txt \
        || fail "--dry-run does not name the recurrence backend"
    grep -q "^  offered load per server at full speed: 0.7488 = " leaf.txt \
        || fail "--dry-run does not print the offered load"
    "$bin" "$configs/jsq_cluster.json" --dry-run >jsq.txt \
        || fail "--dry-run jsq_cluster.json"
    grep -q "^  backend: des$" jsq.txt \
        || fail "--dry-run does not name the DES backend"
    grep -q "^    not the recurrence: dispatch: " jsq.txt \
        || fail "--dry-run does not name what blocks the recurrence"

    # --dry-run applies the same cross-key checks a run does.
    sed 's/"cluster"/"serverModel": "ps", "capping": {}, "cluster"/' \
        "$smoke" >mismatch.json
    must_fail "requires the FCFS server model" "$bin" mismatch.json --dry-run
    # ...including the offered-load check: rho >= 1 has no steady state.
    sed 's/"loadFactor": 0.7/"loadFactor": 1.0/' \
        "$configs/google_leaf.json" >saturated.json
    must_fail "offered load per server at full speed is 1.07 = " "$bin" \
        saturated.json --dry-run

    # Strict parsing reaches nested blocks; --lax ignores the same typo.
    sed 's/"accuracy"/"warmupp": 10, "accuracy"/' "$smoke" >typo.json
    must_fail "unknown key 'warmupp' in sqs block" "$bin" typo.json --dry-run
    "$bin" typo.json --dry-run --lax >/dev/null \
        || fail "--lax does not ignore an unknown sqs key"

    must_fail --report "$bin" "$smoke" --replications 3 --report r
    must_fail --progress "$bin" "$smoke" --replications 3 --progress
    # The per-file output flags --report replaced hit the usage error,
    # which lists --report.
    for removed in json trace trace-format telemetry-out convergence-out \
        timeline-out timeline-format status-file; do
        must_fail --report "$bin" "$smoke" "--$removed" x
        must_fail --report "$bin" "$smoke" --slaves 2 "--$removed" x
    done

    # A run stopped by its event valve leaves a checkpoint; resuming it
    # under a different --seed must fail rather than ignore the seed.
    sed 's/"accuracy": 0.1/"accuracy": 0.001, "maxEvents": 200000/' \
        "$smoke" >short.json
    "$bin" short.json --slaves 2 --checkpoint ckpt.json >/dev/null
    [ -f ckpt.json ] || fail "no checkpoint written"
    must_fail --seed "$bin" short.json --slaves 2 --resume ckpt.json \
        --seed 5
    # ...and resuming under an edited config must fail too, while the
    # config that wrote it resumes.
    sed 's/"accuracy": 0.001/"accuracy": 0.002/' short.json >edited.json
    must_fail "original model, config" "$bin" edited.json --slaves 2 \
        --resume ckpt.json
    "$bin" short.json --slaves 2 --resume ckpt.json 2>&1 \
        | grep -q "^resumed: " || fail "resume under the original config"
    # The run-length valve is no part of the identity: the config
    # without it resumes and runs to convergence.
    sed 's/, "maxEvents": 200000//' short.json >unvalved.json
    "$bin" unvalved.json --slaves 2 --resume ckpt.json 2>&1 \
        | grep -q "^resumed: " || fail "resume without the event valve"
    ;;
bh_campaign)
    # Expansion applies the run's cross-key checks to every point, so an
    # invalid point fails a dry run too, and nothing is written.
    sed -e 's/"cluster"/"capping": {}, "cluster"/' \
        -e 's/"loadFactor": \[0.5, 0.7\]/"serverModel": ["fcfs", "ps"]/' \
        "$campaign" >crosskey.json
    must_fail "requires the FCFS server model" "$bin" run crosskey.json \
        --dry-run
    must_fail "requires the FCFS server model" "$bin" run crosskey.json
    [ ! -e campaign-cache ] || fail "an invalid campaign wrote its cache"

    "$bin" run "$campaign" --report report >/dev/null \
        || fail "run --report"
    expect_files report status.json
    expect_terminal report
    grep -q '"kind": "campaign"' report/status.json \
        || fail "campaign status.json has the wrong kind"

    "$bin" run "$campaign" --dry-run --report planned | grep -q planned \
        || fail "--dry-run does not name the report directory"
    [ ! -e planned ] || fail "--dry-run created the report directory"

    must_fail --max-points "$bin" status "$campaign" --max-points 1
    must_fail --report "$bin" export "$campaign" --report r
    must_fail --out "$bin" run "$campaign" --out x.csv
    must_fail --timeline-out "$bin" status "$campaign" --timeline-out x
    # Flags --report replaced hit the usage error, which lists --report.
    for removed in status-file telemetry-out; do
        must_fail --report "$bin" run "$campaign" "--$removed" x
    done
    removed=timeline-format
    must_fail --report "$bin" export "$campaign" "--$removed" csv
    ;;
*)
    echo "unknown tool $tool"
    exit 2
    ;;
esac

[ "$failures" -eq 0 ] || exit 1
echo "cli $tool: OK"
