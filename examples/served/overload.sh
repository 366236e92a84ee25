#!/bin/sh
# Runnable version of the docs/OPERATIONS.md "Overload protection"
# walkthrough: start cptserved with tight admission budgets, throw a 10x
# submit storm at it and watch the two outcomes — admission (201) and
# 429 + Retry-After, which registers nothing — then let one client per
# rejected submission retry, sleeping for the Retry-After each 429
# carries, until every run of the storm is admitted and done. /healthz
# stays serving throughout: a daemon at its budgets is not degraded.
#
# Usage: examples/served/overload.sh [storm-size]
# Needs: go, curl. No model files — the builtin runs on the synthetic
# generator. The daemon listens on an ephemeral localhost port.
set -eu

STORM=${1:-20}
ADDR=127.0.0.1:${CPTSERVED_PORT:-18080}
RUN='{"scenario": "flash-crowd", "ues": 500, "compression": 1800}'
cd "$(dirname "$0")/../.."

echo "== building and starting cptserved on $ADDR (2 run slots, 5000 UEs)"
go build -o /tmp/cptserved.overload ./cmd/cptserved
/tmp/cptserved.overload -addr "$ADDR" -log-level warn \
    -max-active-runs 2 -max-total-ues 5000 &
DAEMON=$!
WORK=$(mktemp -d)
trap 'kill -TERM $DAEMON 2>/dev/null; wait $DAEMON 2>/dev/null || true; rm -rf "$WORK"' EXIT

for _ in $(seq 1 50); do
    curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done
curl -sf "http://$ADDR/healthz" >/dev/null

# post prints "<status> <Retry-After>" for one submission of $RUN.
post() {
    hdr=$(mktemp -p "$WORK")
    code=$(curl -s -o /dev/null -D "$hdr" -w '%{http_code}' -X POST "http://$ADDR/runs" -d "$RUN")
    ra=$(tr -d '\r' <"$hdr" | sed -n 's/^[Rr]etry-[Aa]fter: *//p')
    rm -f "$hdr"
    echo "$code ${ra:-0}"
}

# client retries one rejected submission until it is admitted, honouring
# the Retry-After of every 429, and records how many attempts it took.
client() {
    sleep "$1"
    tries=1
    while :; do
        set -- $(post)
        case $1 in
        201) echo "$tries" >>"$WORK/tries"; return 0 ;;
        429) sleep "$2"; tries=$((tries + 1)) ;;
        *) echo "unexpected status $1" >&2; return 1 ;;
        esac
    done
}

echo "== submit storm: $STORM paced flash-crowd runs at a 2-run daemon"
for _ in $(seq 1 "$STORM"); do post; done >"$WORK/storm"
echo "   status codes (201 admitted / 429 rejected, nothing registered):"
cut -d' ' -f1 "$WORK/storm" | sort | uniq -c
echo "   registered runs: $(curl -sf "http://$ADDR/runs" | grep -c '"id"')"

echo "== a run bigger than the whole UE budget is a 400, not a 429"
curl -s -w ' -> %{http_code}\n' -X POST "http://$ADDR/runs" \
    -d '{"scenario": "flash-crowd", "ues": 6000}' | tr -s '\n ' ' '
echo

echo "== readiness mid-storm: still serving"
curl -s -w ' -> %{http_code}\n' "http://$ADDR/healthz" | tr -s '\n ' ' '
echo
curl -sf "http://$ADDR/metrics" | grep -E '^cptserved_(admission|healthz)'

echo "== every rejected submission retries after its Retry-After"
PIDS=
while read -r code ra; do
    [ "$code" = 429 ] || continue
    client "$ra" &
    PIDS="$PIDS $!"
done <"$WORK/storm"
for p in $PIDS; do wait "$p"; done
echo "   retry clients admitted: $(wc -l <"$WORK/tries" 2>/dev/null || echo 0)," \
    "attempts each: $(sort -n "$WORK/tries" 2>/dev/null | tr '\n' ' ')"

echo "== waiting for every admitted run to finish"
for _ in $(seq 1 120); do
    LEFT=$(curl -sf "http://$ADDR/runs" | grep -c -E '"state": "(generating|streaming)"' || true)
    [ "$LEFT" = 0 ] && break
    sleep 1
done
curl -sf "http://$ADDR/runs" | grep -o '"state": "[a-z]*"' | sort | uniq -c
curl -sf "http://$ADDR/metrics" | grep -E '^cptserved_(admission|runs_started|healthz)'
DONE=$(curl -sf "http://$ADDR/runs" | grep -c '"state": "done"' || true)
[ "$DONE" = "$STORM" ] || { echo "only $DONE of $STORM runs done" >&2; exit 1; }

echo "== done — all $STORM runs admitted and finished; daemon shuts down via trap"
