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
    ;;
bh_campaign)
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
