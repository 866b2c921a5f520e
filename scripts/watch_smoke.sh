#!/bin/sh
# watch_smoke.sh — boot remosd with the continuous-collection plane on,
# subscribe to bandwidth changes over BOTH wire protocols (ASCII WATCH
# and HTTP/SSE), and assert server-pushed UPDATEs arrive. The twosite
# scenario's scripted cross-traffic (3 Mbit/s mean, 40% jitter, 2 s
# period on the 10 Mbit/s WAN hop) is the perturbation. The WAN hop is
# benchmark-measured, so -bench-interval 3s (not the 30 s default)
# bounds how soon a "change 0.02" watch can fire. Finishes by checking
# /metrics exposes the sched/watch gauges. remosctl is the only client
# used (no curl needed).
set -eu

ASCII=${ASCII:-127.0.0.1:43567}
HTTP=${HTTP:-127.0.0.1:43568}
OBS=${OBS:-127.0.0.1:43571}

WORK=$(mktemp -d)
LOG="$WORK/remosd.log"
cleanup() {
    [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "watch-smoke: building"
go build -o "$WORK/remosd" ./cmd/remosd
go build -o "$WORK/remosctl" ./cmd/remosctl

echo "watch-smoke: starting remosd (background scheduler on)"
"$WORK/remosd" -listen "$ASCII" -http "$HTTP" -obs "$OBS" \
    -dir '' -hostload '' -sched-interval 500ms -bench-interval 3s >"$LOG" 2>&1 &
PID=$!

i=0
until "$WORK/remosctl" -obs "http://$OBS" stats health >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "watch-smoke: remosd did not come up" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.2
done

APP=$(awk '/remosd:   app1 /{print $NF; exit}' "$LOG")
SRV=$(awk '/remosd:   srv /{print $NF; exit}' "$LOG")
if [ -z "$APP" ] || [ -z "$SRV" ]; then
    echo "watch-smoke: could not find demo hosts in remosd log" >&2
    cat "$LOG" >&2
    exit 1
fi

# Each invocation prints the baseline then exits 0 on the first pushed
# (non-init) update; -timeout bounds the wait so a silent plane fails.
echo "watch-smoke: ASCII watch $APP -> $SRV"
"$WORK/remosctl" -server "$ASCII" -hostload '' -timeout 30s -count 1 \
    watch "$APP" "$SRV" change 0.02

echo "watch-smoke: SSE watch $APP -> $SRV"
"$WORK/remosctl" -xml "http://$HTTP" -hostload '' -timeout 30s -count 1 \
    watch "$APP" "$SRV" change 0.02

echo "watch-smoke: checking /metrics for the plane's gauges"
"$WORK/remosctl" -obs "http://$OBS" stats metrics >"$WORK/metrics"
for want in \
    'remos_sched_polls_total' \
    'remos_sched_targets' \
    'remos_sched_poll_interval_seconds{target=' \
    'remos_watch_updates_total' \
    'remos_watch_active 0' \
    'remos_snapshot_applies_total'; do
    if ! grep -qF "$want" "$WORK/metrics"; then
        echo "watch-smoke: /metrics missing: $want" >&2
        cat "$WORK/metrics" >&2
        exit 1
    fi
done

# A scheduler-covered pair answers warm: the preseeded app1 pairs are
# polled in the background, so this query must answer from the snapshot
# generation the last poll made. A topology query rides the QUERY verb,
# which reads the same generation FLOWS does.
echo "watch-smoke: warm query $APP -> $SRV"
before=$(awk '/^remos_snapshot_hits_total /{print $2}' "$WORK/metrics")
"$WORK/remosctl" -server "$ASCII" -hostload '' topo "$APP" "$SRV"
"$WORK/remosctl" -obs "http://$OBS" stats metrics >"$WORK/metrics2"
after=$(awk '/^remos_snapshot_hits_total /{print $2}' "$WORK/metrics2")
if [ "${after:-0}" -le "${before:-0}" ]; then
    echo "watch-smoke: query did not answer warm (snapshot hits $before -> $after)" >&2
    exit 1
fi

echo "watch-smoke: OK"
