#!/bin/sh
# obs_smoke.sh — boot remosd, drive a real query through the ASCII
# protocol, and assert the observability plane reports it: /metrics
# counts the request and renders the runtime and snapshot gauges, /healthz answers,
# and /debug/queries shows the traced fan-out. remosctl is the only fetcher used (no curl needed).
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

echo "obs-smoke: building"
go build -o "$WORK/remosd" ./cmd/remosd
go build -o "$WORK/remosctl" ./cmd/remosctl

echo "obs-smoke: starting remosd"
"$WORK/remosd" -listen "$ASCII" -http "$HTTP" -obs "$OBS" \
    -dir '' -hostload '' >"$LOG" 2>&1 &
PID=$!

# Wait for the observability plane to answer.
i=0
until "$WORK/remosctl" -obs "http://$OBS" stats health >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "obs-smoke: remosd did not come up" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.2
done

# The daemon logs its queryable demo hosts; pick two on different sites.
APP=$(awk '/remosd:   app1 /{print $NF; exit}' "$LOG")
SRV=$(awk '/remosd:   srv /{print $NF; exit}' "$LOG")
if [ -z "$APP" ] || [ -z "$SRV" ]; then
    echo "obs-smoke: could not find demo hosts in remosd log" >&2
    cat "$LOG" >&2
    exit 1
fi

# -server-flows=false forces the graph-fetching QUERY path: the trace
# assertions below want the fan-out AND the response encode stage, and
# the snapshot-backed FLOWS verb ships no graph to encode.
echo "obs-smoke: querying bandwidth $APP -> $SRV"
"$WORK/remosctl" -server "$ASCII" -hostload '' -server-flows=false bw "$APP" "$SRV"

echo "obs-smoke: checking /metrics"
"$WORK/remosctl" -obs "http://$OBS" stats metrics >"$WORK/metrics"
for want in \
    'remos_requests_total{proto="ascii"} ' \
    'remos_request_seconds_bucket' \
    'remos_master_queries_total' \
    'remos_snmp_exchanges_total' \
    'remos_qcache_misses_total' \
    'remos_runtime_goroutines ' \
    'remos_runtime_open_fds ' \
    'remos_snapshot_tree_builds '; do
    if ! grep -qF "$want" "$WORK/metrics"; then
        echo "obs-smoke: /metrics missing: $want" >&2
        cat "$WORK/metrics" >&2
        exit 1
    fi
done

echo "obs-smoke: checking /debug/queries"
"$WORK/remosctl" -obs "http://$OBS" stats queries >"$WORK/queries"
for want in '"fanout"' '"merge"' '"encode"'; do
    if ! grep -qF "$want" "$WORK/queries"; then
        echo "obs-smoke: /debug/queries missing stage: $want" >&2
        cat "$WORK/queries" >&2
        exit 1
    fi
done

echo "obs-smoke: summary view"
"$WORK/remosctl" -obs "http://$OBS" stats

echo "obs-smoke: OK"
